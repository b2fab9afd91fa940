package core

import (
	"sort"

	"phasefold/internal/sim"
	"phasefold/internal/trace"
)

// healthRank accumulates one rank's health statistics from its record
// stream: the checks for damage signatures that leave the container
// invariants intact — empty or early-ending ranks, lossy sampling streams,
// cross-rank clock skew. Everything they need reduces to per-rank scalars
// plus the sample-gap and iteration-duration lists, so a slot retains no
// records; Ingest fills one per rank as records arrive.
type healthRank struct {
	records int
	end     sim.Time

	samples           int
	firstSmp, lastSmp sim.Time
	gaps              []float64

	firstIter, prevIter sim.Time
	iterDurs            []float64
}

func newHealthRank() healthRank { return healthRank{firstIter: -1, prevIter: -1} }

func (hr *healthRank) event(e *trace.Event) {
	hr.records++
	if e.Time > hr.end {
		hr.end = e.Time
	}
	if e.Type == trace.IterBegin {
		if hr.firstIter < 0 {
			hr.firstIter = e.Time
		}
		if hr.prevIter >= 0 {
			hr.iterDurs = append(hr.iterDurs, float64(e.Time-hr.prevIter))
		}
		hr.prevIter = e.Time
	}
}

func (hr *healthRank) sample(s *trace.Sample) {
	hr.records++
	if s.Time > hr.end {
		hr.end = s.Time
	}
	if hr.samples > 0 {
		hr.gaps = append(hr.gaps, float64(s.Time-hr.lastSmp))
	} else {
		hr.firstSmp = s.Time
	}
	hr.lastSmp = s.Time
	hr.samples++
}

// reportHealth renders the ranks' health statistics as diagnostics, in the
// stage's order: per-rank checks in rank order, then clock skew.
func reportHealth(ranks []healthRank, ds *diagSink) {
	var end sim.Time
	for i := range ranks {
		if ranks[i].end > end {
			end = ranks[i].end
		}
	}
	for r := range ranks {
		hr := &ranks[r]
		if hr.records == 0 {
			ds.add("health", KindRankEmpty, SeverityWarn, r, -1, "rank carries no records (process lost or stream dropped)")
			continue
		}
		if end > 0 && float64(hr.end) < healthEarlyEndFrac*float64(end) {
			ds.add("health", KindRankTruncated, SeverityWarn, r, -1,
				"rank ends at %s, %.0f%% into the trace (stream truncated?)",
				hr.end, 100*float64(hr.end)/float64(end))
		}
		if missing, expected := hr.sampleLoss(); missing >= healthLossMin &&
			float64(missing) >= healthLossFrac*float64(expected) {
			ds.add("health", KindSampleLoss, SeverityWarn, r, -1,
				"~%d of ~%d expected samples missing (sampling stream lossy?)", missing, expected)
		}
	}
	clockSkew(ranks, ds)
}

// sampleLoss compares the rank's sample count against the count its own
// median sampling period predicts for its time span. The median is robust to
// the loss itself (each dropped sample inflates only one gap), so moderate
// loss rates remain visible. The median is selected in place: nothing reads
// the gaps afterwards.
func (hr *healthRank) sampleLoss() (missing, expected int) {
	if hr.samples < healthMinSamples {
		return 0, hr.samples
	}
	med := sim.QuantileInPlace(hr.gaps, 0.5)
	if med <= 0 {
		return 0, hr.samples
	}
	span := float64(hr.lastSmp - hr.firstSmp)
	expected = int(span/med) + 1
	if expected <= hr.samples {
		return 0, expected
	}
	return expected - hr.samples, expected
}

// clockSkew compares the per-rank time of the earliest shared iteration
// marker; ranks of an SPMD program reach it nearly together, so a large
// spread means the per-rank clocks disagree.
func clockSkew(ranks []healthRank, ds *diagSink) {
	type mark struct {
		rank int
		t    sim.Time
	}
	var (
		marks    []mark
		iterDurs []float64
	)
	for r := range ranks {
		hr := &ranks[r]
		iterDurs = append(iterDurs, hr.iterDurs...)
		if hr.firstIter >= 0 {
			marks = append(marks, mark{rank: r, t: hr.firstIter})
		}
	}
	if len(marks) < 2 {
		return
	}
	threshold := float64(healthSkewFloor)
	if len(iterDurs) > 0 {
		if t := healthSkewOfIterFrac * sim.Median(iterDurs); t > threshold {
			threshold = t
		}
	}
	times := make([]float64, len(marks))
	for i, m := range marks {
		times[i] = float64(m.t)
	}
	ref := sim.Median(times)
	sort.Slice(marks, func(i, j int) bool { return marks[i].rank < marks[j].rank })
	for _, m := range marks {
		if off := float64(m.t) - ref; off > threshold || off < -threshold {
			ds.add("health", KindClockSkew, SeverityWarn, m.rank, -1,
				"first iteration marker offset by %s from the median rank (clock skew?)",
				sim.Duration(off).String())
		}
	}
}
