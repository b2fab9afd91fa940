package folding

import (
	"math"
	"testing"

	"phasefold/internal/callstack"
	"phasefold/internal/counters"
	"phasefold/internal/sim"
	"phasefold/internal/trace"
)

// buildFoldingTrace hand-builds a single-rank trace with nIters identical
// bursts of duration 1 ms whose instruction counter runs at rate1 during the
// first half and rate2 during the second half (counts per ns), with one
// sample per burst placed at a distinct offset so the folded cloud covers
// [0,1] densely.
func buildFoldingTrace(t *testing.T, nIters int, rate1, rate2 float64) (*trace.Trace, []trace.Burst) {
	t.Helper()
	tr := trace.New("fold", 1, nil, nil)
	rid := tr.Symbols.Define(callstack.Routine{Name: "k", File: "k.c", StartLine: 1, EndLine: 99})
	const burstDur = sim.Millisecond
	ctrAt := func(insF float64) counters.Set {
		s := counters.AllMissing()
		s.Put(counters.Instructions, int64(insF))
		return s
	}
	// insAt returns cumulative instructions at offset dt within a burst
	// starting with cumulative base.
	insAt := func(base float64, dt sim.Duration) float64 {
		half := float64(burstDur) / 2
		fdt := float64(dt)
		if fdt <= half {
			return base + rate1*fdt
		}
		return base + rate1*half + rate2*(fdt-half)
	}
	now := sim.Time(0)
	baseIns := 0.0
	for it := 0; it < nIters; it++ {
		tr.AddEvent(trace.Event{Time: now, Type: trace.IterBegin, Value: int64(it), Counters: ctrAt(baseIns)})
		start := now
		// One sample per burst at a sweeping offset in (0, burstDur).
		off := sim.Duration(float64(burstDur) * (float64(it%97) + 0.5) / 97)
		line := 10
		if float64(off) > float64(burstDur)/2 {
			line = 20
		}
		sid := tr.Stacks.Intern(callstack.Stack{{Routine: rid, Line: line}})
		tr.AddSample(trace.Sample{Time: start + off, Counters: ctrAt(insAt(baseIns, off)), Stack: sid})
		now += burstDur
		baseIns = insAt(baseIns, burstDur)
		tr.AddEvent(trace.Event{Time: now, Type: trace.IterEnd, Value: int64(it), Counters: ctrAt(baseIns)})
		now += 10 * sim.Microsecond // gap between iterations
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	bursts, err := trace.ExtractBursts(tr, trace.BurstOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for i := range bursts {
		bursts[i].Cluster = 0
	}
	return tr, bursts
}

func TestFoldProjectsIntoUnitSquare(t *testing.T) {
	tr, bursts := buildFoldingTrace(t, 200, 1.0, 3.0)
	f, err := Fold(tr, bursts, 0, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if f.NumBursts != 200 || f.UsedBursts != 200 {
		t.Fatalf("bursts %d/%d", f.UsedBursts, f.NumBursts)
	}
	pts := f.Points[counters.Instructions]
	if len(pts) != 200 {
		t.Fatalf("folded %d points, want 200", len(pts))
	}
	for i, p := range pts {
		if p.X < 0 || p.X > 1 || p.Y < 0 || p.Y > 1 {
			t.Fatalf("point %d outside unit square: %+v", i, p)
		}
		if i > 0 && pts[i-1].X > p.X {
			t.Fatal("points not sorted by X")
		}
	}
}

func TestFoldCloudMatchesTwoPhaseShape(t *testing.T) {
	// rate1=1, rate2=3: total per burst = 0.5ms*1 + 0.5ms*3 = 2ms-units.
	// Normalized cumulative at x=0.5 must be 0.25.
	tr, bursts := buildFoldingTrace(t, 400, 1.0, 3.0)
	f, err := Fold(tr, bursts, 0, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range f.Points[counters.Instructions] {
		var want float64
		if p.X <= 0.5 {
			want = p.X / 2
		} else {
			want = 0.25 + (p.X-0.5)*1.5
		}
		if math.Abs(p.Y-want) > 0.01 {
			t.Fatalf("folded point (%.3f, %.3f) deviates from truth %.3f", p.X, p.Y, want)
		}
	}
}

func TestFoldRateScale(t *testing.T) {
	tr, bursts := buildFoldingTrace(t, 100, 1.0, 3.0)
	f, err := Fold(tr, bursts, 0, Options{})
	if err != nil {
		t.Fatal(err)
	}
	scale, ok := f.RateScale(counters.Instructions)
	if !ok {
		t.Fatal("rate scale unavailable")
	}
	// Total = 2e6 instructions per 1ms burst -> scale = total/dur = 2e9/s.
	// Normalized slope on [0,0.5] is 0.5 => rate = 1e9/s = rate1 (1/ns).
	if math.Abs(scale-2e9) > 2e7 {
		t.Fatalf("rate scale %v, want ~2e9", scale)
	}
}

func TestFoldStacks(t *testing.T) {
	tr, bursts := buildFoldingTrace(t, 300, 1.0, 3.0)
	f, err := Fold(tr, bursts, 0, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Stacks) != 300 {
		t.Fatalf("folded %d stacks", len(f.Stacks))
	}
	firstHalf, ok := Attribute(f, tr.Stacks, 0, 0.5)
	if !ok {
		t.Fatal("no attribution for first half")
	}
	if firstHalf.Line != 10 {
		t.Fatalf("first half attributed to line %d, want 10", firstHalf.Line)
	}
	if firstHalf.Share < 0.95 {
		t.Fatalf("first half share %v", firstHalf.Share)
	}
	secondHalf, ok := Attribute(f, tr.Stacks, 0.5, 1)
	if !ok || secondHalf.Line != 20 {
		t.Fatalf("second half attribution = %+v (ok=%v)", secondHalf, ok)
	}
}

func TestFoldOutlierPruning(t *testing.T) {
	tr, bursts := buildFoldingTrace(t, 100, 1.0, 3.0)
	// Stretch one burst way out of band.
	bursts[10].End = bursts[10].Start + 3*sim.Millisecond
	f, err := Fold(tr, bursts, 0, Options{DurationBand: 0.15})
	if err != nil {
		t.Fatal(err)
	}
	if f.UsedBursts != 99 {
		t.Fatalf("used %d bursts, want 99 (outlier pruned)", f.UsedBursts)
	}
	// Without pruning it is kept.
	f2, err := Fold(tr, bursts, 0, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if f2.UsedBursts != 100 {
		t.Fatalf("unpruned fold used %d bursts", f2.UsedBursts)
	}
}

func TestFoldMinBurstSamples(t *testing.T) {
	tr, bursts := buildFoldingTrace(t, 50, 1, 3)
	// Detach samples from half the bursts.
	for i := range bursts {
		if i%2 == 0 {
			bursts[i].FirstSmp = -1
			bursts[i].NumSmp = 0
		}
	}
	f, err := Fold(tr, bursts, 0, Options{MinBurstSamples: 1})
	if err != nil {
		t.Fatal(err)
	}
	if f.UsedBursts != 25 {
		t.Fatalf("used %d bursts, want 25", f.UsedBursts)
	}
}

func TestFoldErrors(t *testing.T) {
	tr, bursts := buildFoldingTrace(t, 10, 1, 3)
	if _, err := Fold(tr, bursts, -1, Options{}); err == nil {
		t.Fatal("noise label accepted")
	}
	if _, err := Fold(tr, bursts, 7, Options{}); err == nil {
		t.Fatal("empty cluster accepted")
	}
}

func TestFoldBimodalFallback(t *testing.T) {
	// A bimodal cluster whose median falls in the empty gap between modes
	// would prune every member; folding must fall back to no pruning.
	tr, bursts := buildFoldingTrace(t, 40, 1, 3)
	for i := range bursts {
		if i%2 == 0 {
			bursts[i].End = bursts[i].Start + 4*sim.Millisecond
		}
	}
	f, err := Fold(tr, bursts, 0, Options{DurationBand: 0.15})
	if err != nil {
		t.Fatal(err)
	}
	if f.UsedBursts != 40 {
		t.Fatalf("bimodal fallback used %d bursts, want all 40", f.UsedBursts)
	}
}

func TestFoldMissingCountersSkipped(t *testing.T) {
	tr, bursts := buildFoldingTrace(t, 40, 1, 3)
	f, err := Fold(tr, bursts, 0, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// The synthetic trace only captures Instructions.
	if f.NumPoints(counters.Cycles) != 0 {
		t.Fatal("points folded for uncaptured counter")
	}
	if _, ok := f.RateScale(counters.Cycles); ok {
		t.Fatal("rate scale for uncaptured counter")
	}
	if _, ok := f.TotalDelta.Get(counters.Instructions); !ok {
		t.Fatal("total delta missing for captured counter")
	}
}

func TestProfileHistogram(t *testing.T) {
	tr, bursts := buildFoldingTrace(t, 200, 1, 3)
	f, err := Fold(tr, bursts, 0, Options{})
	if err != nil {
		t.Fatal(err)
	}
	prof := Profile(f, tr.Stacks, 0, 1)
	if len(prof) != 2 {
		t.Fatalf("profile has %d lines, want 2", len(prof))
	}
	var total float64
	for _, lp := range prof {
		total += lp.Share
	}
	if math.Abs(total-1) > 1e-9 {
		t.Fatalf("profile shares sum to %v", total)
	}
	if prof[0].Count < prof[1].Count {
		t.Fatal("profile not sorted by count")
	}
}

func TestAttributeEmptyInterval(t *testing.T) {
	tr, bursts := buildFoldingTrace(t, 10, 1, 3)
	f, err := Fold(tr, bursts, 0, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := Attribute(f, tr.Stacks, 2, 3); ok {
		t.Fatal("attribution for empty interval returned ok")
	}
}
