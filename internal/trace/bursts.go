package trace

import (
	"fmt"
	"sort"

	"phasefold/internal/counters"
	"phasefold/internal/sim"
)

// BurstOptions controls computation-burst extraction.
type BurstOptions struct {
	// MinDuration drops bursts shorter than this; tiny slivers between
	// back-to-back communications carry no analyzable signal and only add
	// clustering noise. Zero keeps everything.
	MinDuration sim.Duration
	// RequireRegion keeps only bursts executed inside an instrumented
	// region, discarding glue code between communication calls.
	RequireRegion bool
}

// ExtractBursts derives computation bursts from the event streams of t: the
// maximal intervals during which a rank executes user code (no open
// communication), labelled with the innermost instrumented region and the
// iteration they belong to. Bursts inherit counter deltas from the probe
// snapshots at their boundaries, and are linked to the samples that fall
// inside them.
//
// The extraction insists on well-formed streams (Validate's invariants); a
// malformed stream returns an error rather than silently mis-paired bursts.
func ExtractBursts(t *Trace, opt BurstOptions) ([]Burst, error) {
	var all []Burst
	for _, rd := range t.Ranks {
		bursts, err := ExtractRankBursts(rd, opt)
		if err != nil {
			return nil, err
		}
		all = append(all, bursts...)
	}
	return all, nil
}

// ExtractRankBursts derives the computation bursts of a single rank — the
// per-process unit of ExtractBursts, exposed so degraded-mode analysis can
// isolate a malformed rank instead of rejecting the whole trace.
func ExtractRankBursts(rd *RankData, opt BurstOptions) ([]Burst, error) {
	if rd == nil {
		return nil, fmt.Errorf("%w: nil rank", ErrInvalid)
	}
	x := NewExtractor(rd.Rank, opt)
	for i := range rd.Events {
		if err := x.Push(&rd.Events[i]); err != nil {
			return nil, err
		}
	}
	if err := x.Finish(); err != nil {
		return nil, err
	}
	for i := range rd.Samples {
		x.Link(&rd.Samples[i], nil)
	}
	return x.Bursts(), nil
}

type openBurst struct {
	start    sim.Time
	startCtr counters.Set // probe snapshot at burst start
	active   bool
	region   int64
	iterNum  int64
}

// Extractor derives computation bursts from one rank's event stream and
// links the rank's samples to them, incrementally: Push events in time
// order as they arrive, Link samples in time order, and Finish at end of
// stream. The batch path (ExtractRankBursts) drives the same state machine
// over a whole stream in one shot, so a chunked feed yields bit-identical
// bursts and sample links at any chunking.
//
// A sample links to the burst whose [Start, End) holds its time; samples
// outside every burst stay unlinked. Bursts carry the index of their first
// sample in the rank's sample stream and the count of contiguous samples
// inside them. A sample that may still belong to a burst that has not
// closed yet is buffered (copied) until later events decide it.
type Extractor struct {
	rank      int32
	opt       BurstOptions
	bursts    []Burst
	open      openBurst
	regions   []int64 // stack of active region ids
	commDepth int
	iterNum   int64
	idx       int // events pushed so far (error-message event index)
	lastTime  sim.Time
	finished  bool
	err       error

	// Sample linking: cursor is the first burst still accepting samples,
	// si the stream index of the next sample to place, pending the samples
	// waiting for a burst to close.
	cursor  int
	si      int
	pending []Sample
}

// NewExtractor returns an extractor for one rank's stream.
func NewExtractor(rank int32, opt BurstOptions) *Extractor {
	return &Extractor{rank: rank, opt: opt, iterNum: -1}
}

func (x *Extractor) begin(e *Event) {
	region := int64(-1)
	if n := len(x.regions); n > 0 {
		region = x.regions[n-1]
	}
	x.open = openBurst{start: e.Time, startCtr: e.Counters, active: true, region: region, iterNum: x.iterNum}
}

func (x *Extractor) end(e *Event) {
	if !x.open.active {
		return
	}
	x.open.active = false
	if x.opt.RequireRegion && x.open.region < 0 {
		return
	}
	dur := e.Time - x.open.start
	if dur <= 0 || dur < x.opt.MinDuration {
		return
	}
	x.bursts = append(x.bursts, Burst{
		Rank:     x.rank,
		Region:   x.open.region,
		Start:    x.open.start,
		End:      e.Time,
		Iter:     x.open.iterNum,
		StartCtr: x.open.startCtr,
		Delta:    e.Counters.Sub(x.open.startCtr),
		Group:    e.Group,
		Cluster:  ClusterNone,
		FirstSmp: -1,
	})
}

// Push feeds the next event of the stream. A malformed stream (unbalanced
// region or communication nesting) returns an error; the error is sticky and
// subsequent pushes return it unchanged.
func (x *Extractor) Push(e *Event) error {
	if x.err != nil {
		return x.err
	}
	i := x.idx
	x.idx++
	x.lastTime = e.Time
	switch e.Type {
	case IterBegin:
		x.iterNum = e.Value
		if x.commDepth == 0 {
			x.end(e)
			x.begin(e)
		}
	case IterEnd:
		if x.commDepth == 0 {
			x.end(e)
		}
	case RegionEnter:
		if x.commDepth == 0 {
			x.end(e) // close the burst outside the region, if any
		}
		x.regions = append(x.regions, e.Value)
		if x.commDepth == 0 {
			x.begin(e)
		}
	case RegionExit:
		if len(x.regions) == 0 {
			x.err = fmt.Errorf("trace: rank %d event %d: region exit without enter", x.rank, i)
			return x.err
		}
		if x.regions[len(x.regions)-1] != e.Value {
			x.err = fmt.Errorf("trace: rank %d event %d: region exit %d does not match open region %d",
				x.rank, i, e.Value, x.regions[len(x.regions)-1])
			return x.err
		}
		x.regions = x.regions[:len(x.regions)-1]
		if x.commDepth == 0 {
			x.end(e)
			x.begin(e)
		}
	case CommEnter:
		if x.commDepth == 0 {
			x.end(e)
		}
		x.commDepth++
	case CommExit:
		x.commDepth--
		if x.commDepth < 0 {
			x.err = fmt.Errorf("trace: rank %d event %d: comm exit without enter", x.rank, i)
			return x.err
		}
		if x.commDepth == 0 {
			x.begin(e)
		}
	}
	return nil
}

// Bursts returns the bursts completed so far, in start order. The slice is
// the extractor's own: later Links may still add samples to its tail.
func (x *Extractor) Bursts() []Burst { return x.bursts }

// Pending returns how many samples wait for a burst to close.
func (x *Extractor) Pending() int { return len(x.pending) }

// Link places the next sample of the stream (samples in time order, and
// after every event that precedes them). observe, when non-nil, sees each
// sample as it links to its burst. A sample that a still-open burst may
// claim is buffered; Relink retries the buffer after more events.
func (x *Extractor) Link(s *Sample, observe func(*Burst, *Sample)) {
	if x.Pending() > 0 || !x.place(s, observe) {
		x.pending = append(x.pending, *s)
	}
}

// Relink retries the buffered samples against the bursts closed since.
func (x *Extractor) Relink(observe func(*Burst, *Sample)) {
	n := 0
	for n < len(x.pending) && x.place(&x.pending[n], observe) {
		n++
	}
	x.pending = x.pending[:copy(x.pending, x.pending[n:])]
}

// place settles s against the first burst still accepting samples: before
// it, s can never link (skip it); inside, link it; at or past its end the
// burst is final (streams are time-ordered), so move on. With no completed
// burst left, s is skipped when it predates every burst the stream can
// still produce — the open burst's start when one is open, else the last
// event — or when the stream finished; otherwise it must wait.
func (x *Extractor) place(s *Sample, observe func(*Burst, *Sample)) bool {
	for ; x.cursor < len(x.bursts); x.cursor++ {
		b := &x.bursts[x.cursor]
		if s.Time < b.Start {
			break
		}
		if s.Time < b.End {
			if b.NumSmp == 0 {
				b.FirstSmp = x.si
			}
			b.NumSmp++
			if observe != nil {
				observe(b, s)
			}
			x.si++
			return true
		}
	}
	if x.cursor == len(x.bursts) && !x.finished {
		horizon := x.lastTime
		if x.open.active {
			horizon = x.open.start
		}
		if s.Time >= horizon {
			return false
		}
	}
	x.si++
	return true
}

// Finish checks the end-of-stream invariants (no open communications or
// regions) and settles every buffered sample. Any final open burst has no
// closing probe and is discarded, as in batch extraction.
func (x *Extractor) Finish() error {
	if x.err != nil {
		return x.err
	}
	if x.commDepth != 0 {
		x.err = fmt.Errorf("trace: rank %d ends with %d open communications", x.rank, x.commDepth)
		return x.err
	}
	if len(x.regions) != 0 {
		x.err = fmt.Errorf("trace: rank %d ends with %d open regions", x.rank, len(x.regions))
		return x.err
	}
	x.finished = true
	x.pending = nil // past every burst: they never link
	return nil
}

// SortBursts orders bursts by (rank, start time), the canonical order the
// clustering and folding stages expect.
func SortBursts(bursts []Burst) {
	sort.Slice(bursts, func(i, j int) bool {
		if bursts[i].Rank != bursts[j].Rank {
			return bursts[i].Rank < bursts[j].Rank
		}
		return bursts[i].Start < bursts[j].Start
	})
}

// TotalComputation sums the durations of all bursts, a denominator used by
// coverage statistics in reports.
func TotalComputation(bursts []Burst) sim.Duration {
	var total sim.Duration
	for _, b := range bursts {
		total += b.Duration()
	}
	return total
}
