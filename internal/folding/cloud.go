package folding

import (
	"math/bits"

	"phasefold/internal/callstack"
	"phasefold/internal/counters"
	"phasefold/internal/sim"
	"phasefold/internal/trace"
)

// BurstKey identifies one burst across the streaming pipeline. A rank's
// bursts start at strictly increasing times (each burst opens at an event at
// or after the previous burst's closing event), so (Rank, Start) is unique
// within a trace and survives the global SortBursts reordering.
type BurstKey struct {
	Rank  int32
	Start sim.Time
}

// KeyOf returns the key of b.
func KeyOf(b *trace.Burst) BurstKey {
	return BurstKey{Rank: b.Rank, Start: b.Start}
}

// BurstCloud accumulates the folded projections of one burst's samples as
// they arrive. The projection of a sample depends only on its burst's
// boundaries and counters — not on the cluster label, which the streaming
// pipeline assigns much later — so clouds can be built eagerly at sample
// attach time and replayed per cluster at the end via CloudProjector.
//
// The cloud is sample-major: one row per projected sample holding its X, the
// Y of every captured counter, a presence mask and the stack, so a burst
// grows one slice rather than one per counter. Observe applies exactly the
// arithmetic of the batch projection (TraceProjector), and CloudProjector
// replays the rows counter by counter, so each counter receives the
// identical per-burst point sequence; replaying members in the batch member
// order therefore yields the identical pre-sort clouds, and hence identical
// sorted output. The cloud counts its points per counter and its stack
// samples as rows arrive, so a fold sizes its clouds without reading rows.
type BurstCloud struct {
	rows []cloudRow
	n    cloudSize
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

// Observe projects sample s, known to lie inside burst b, into the cloud.
func (c *BurstCloud) Observe(b *trace.Burst, s *trace.Sample) {
	dur := float64(b.Duration())
	if dur <= 0 {
		return
	}
	x := float64(s.Time-b.Start) / dur
	if x < 0 || x > 1 {
		return
	}
	r := cloudRow{x: x, mask: s.Counters.Captured() & normalizable(b), stack: s.Stack}
	for m := r.mask; m != 0; m &= m - 1 {
		id := counters.ID(bits.TrailingZeros16(m))
		sv, _ := s.Counters.Get(id)
		base, _ := b.StartCtr.Get(id)
		total, _ := b.Delta.Get(id)
		r.y[id] = sim.Clamp(float64(sv-base)/float64(total), 0, 1)
	}
	if r.mask != 0 || r.stack != callstack.NoStack {
		c.rows = append(c.rows, r)
		c.n.add(r.mask, r.stack)
	}
}

// NumPoints returns the observation count summed over all counters.
func (c *BurstCloud) NumPoints() int {
	n := 0
	for _, k := range c.n.points {
		n += int(k)
	}
	return n
}

// CloudProjector adapts eagerly-built per-burst clouds, found by burst key
// through cloud, into the Projector the folding algebra consumes. Bursts
// without a cloud (no samples attached, or every projection skipped)
// contribute nothing, exactly as the batch projection would.
func CloudProjector(cloud func(BurstKey) *BurstCloud) Projector {
	return cloudProjector(cloud)
}

type cloudProjector func(BurstKey) *BurstCloud

func (p cloudProjector) size(n *cloudSize, b *trace.Burst) {
	if c := p(KeyOf(b)); c != nil {
		for id, k := range c.n.points {
			n.points[id] += k
		}
		n.stacks += c.n.stacks
		n.rows += c.n.rows
	}
}

func (p cloudProjector) project(f *Folded, b *trace.Burst) {
	c := p(KeyOf(b))
	if c == nil {
		return
	}
	for id := range f.Points {
		pts := f.Points[id]
		for i := range c.rows {
			if r := &c.rows[i]; r.mask&(1<<id) != 0 {
				pts = append(pts, Point{X: r.x, Y: r.y[id]})
			}
		}
		f.Points[id] = pts
	}
	for i := range c.rows {
		if r := &c.rows[i]; r.stack != callstack.NoStack {
			f.Stacks = append(f.Stacks, StackSample{X: r.x, Stack: r.stack})
		}
	}
}
