package folding

import (
	"math/bits"
	"sort"

	"phasefold/internal/callstack"
	"phasefold/internal/counters"
	"phasefold/internal/sim"
	"phasefold/internal/trace"
)

// Clouds accumulates the folded projections of one rank's bursts as their
// samples arrive. The projection of a sample depends only on its burst's
// boundaries and counters — not on the cluster label, which the streaming
// pipeline assigns much later — so clouds can be built eagerly at sample
// attach time and replayed per cluster at the end via CloudProjector.
//
// The store is sample-major: one row per projected sample holding its X, the
// Y of every captured counter, a presence mask and the stack. A rank's
// samples link to its bursts in time order (the extractor's cursor only
// moves forward), so each burst's rows arrive one after another and own a
// contiguous span of the store, found by the burst's start: a rank's bursts
// start at strictly increasing times. The rows are cut from blocks that
// grow by a quarter up to maxBlockRows, so a rank allocates a few dozen
// blocks rather than a slice per burst, and at most about a fifth of what
// it allocates is unused. Observe applies exactly the arithmetic of the
// batch projection (TraceProjector), and CloudProjector replays a span
// counter by counter, so each counter receives the identical per-burst
// point sequence; replaying members in the batch member order therefore
// yields the identical pre-sort clouds, and hence identical sorted output.
// Each span counts its points per counter and its stack samples as rows
// arrive, so a fold sizes its clouds without reading rows.
type Clouds struct {
	spans []cloudSpan
	block []cloudRow // the block rows go to; the last span's rows end it
}

// cloudSpan is one burst's rows and their counts.
type cloudSpan struct {
	start sim.Time // the burst's start
	rows  []cloudRow
	n     cloudSize
}

// cloudRow is one projected sample. Bit id of mask is set when y[id] holds
// a projection of counter id.
type cloudRow struct {
	x     float64
	y     [counters.NumIDs]float64
	mask  uint16
	stack callstack.StackID
}

// The presence mask holds one bit per counter id.
var _ [16 - counters.NumIDs]struct{}

// The block sizes in rows: the first block of a rank, and the size blocks
// stop growing at (about 450 KB). A block only grows past the cap to hold
// one burst's rows.
const (
	minBlockRows = 64
	maxBlockRows = 4096
)

// Observe projects sample s, known to lie inside burst b, into b's span. A
// rank's samples must be observed in time order.
func (c *Clouds) Observe(b *trace.Burst, s *trace.Sample) {
	dur := float64(b.Duration())
	if dur <= 0 {
		return
	}
	x := float64(s.Time-b.Start) / dur
	if x < 0 || x > 1 {
		return
	}
	mask := s.Counters.Captured() & normalizable(b)
	if mask == 0 && s.Stack == callstack.NoStack {
		return
	}
	r := c.row(b.Start)
	r.x, r.mask, r.stack = x, mask, s.Stack
	for m := mask; m != 0; m &= m - 1 {
		id := counters.ID(bits.TrailingZeros16(m))
		sv, _ := s.Counters.Get(id)
		base, _ := b.StartCtr.Get(id)
		total, _ := b.Delta.Get(id)
		r.y[id] = sim.Clamp(float64(sv-base)/float64(total), 0, 1)
	}
	c.spans[len(c.spans)-1].n.add(mask, s.Stack)
}

// row appends a row to the span of the burst starting at start, opening the
// span when the burst has none yet, and returns it. When the block is full
// the open span moves to a fresh block, so it stays contiguous.
func (c *Clouds) row(start sim.Time) *cloudRow {
	if n := len(c.spans); n == 0 || c.spans[n-1].start != start {
		c.spans = append(c.spans, cloudSpan{start: start})
	}
	sp := &c.spans[len(c.spans)-1]
	if len(c.block) == cap(c.block) {
		size := min(max(cap(c.block)+cap(c.block)/4, minBlockRows), maxBlockRows)
		c.block = append(make([]cloudRow, 0, max(size, 2*len(sp.rows))), sp.rows...)
	}
	c.block = append(c.block, cloudRow{})
	sp.rows = c.block[len(c.block)-len(sp.rows)-1:]
	return &sp.rows[len(sp.rows)-1]
}

// span returns the span of the burst starting at start, nil when it has no
// rows.
func (c *Clouds) span(start sim.Time) *cloudSpan {
	if c == nil {
		return nil
	}
	i := sort.Search(len(c.spans), func(i int) bool { return c.spans[i].start >= start })
	if i == len(c.spans) || c.spans[i].start != start {
		return nil
	}
	return &c.spans[i]
}

// NumPoints returns the observation count summed over all counters and
// bursts.
func (c *Clouds) NumPoints() int {
	n := 0
	for i := range c.spans {
		for _, k := range c.spans[i].n.points {
			n += int(k)
		}
	}
	return n
}

// CloudProjector adapts the per-rank clouds, found by rank through clouds,
// into the Projector the folding algebra consumes. Bursts without a span (no
// samples attached, or every projection skipped) contribute nothing,
// exactly as the batch projection would.
func CloudProjector(clouds func(rank int32) *Clouds) Projector {
	return cloudProjector(clouds)
}

type cloudProjector func(rank int32) *Clouds

func (p cloudProjector) size(n *cloudSize, b *trace.Burst) *cloudSpan {
	sp := p(b.Rank).span(b.Start)
	if sp != nil {
		for id, k := range sp.n.points {
			n.points[id] += k
		}
		n.stacks += sp.n.stacks
		n.rows += sp.n.rows
	}
	return sp
}

func (p cloudProjector) project(f *Folded, _ *trace.Burst, sp *cloudSpan) {
	if sp == nil {
		return
	}
	for id := range f.Points {
		pts := f.Points[id]
		for i := range sp.rows {
			if r := &sp.rows[i]; r.mask&(1<<id) != 0 {
				pts = append(pts, Point{X: r.x, Y: r.y[id]})
			}
		}
		f.Points[id] = pts
	}
	for i := range sp.rows {
		if r := &sp.rows[i]; r.stack != callstack.NoStack {
			f.Stacks = append(f.Stacks, StackSample{X: r.x, Stack: r.stack})
		}
	}
}
