package folding

import (
	"math/rand"
	"slices"
	"sort"
	"testing"

	"phasefold/internal/callstack"
	"phasefold/internal/counters"
	"phasefold/internal/sim"
	"phasefold/internal/trace"
)

// The oracle is the fold's specification written plainly: one stable sort
// by X (sort.SliceStable) per counter cloud and one for the stack timeline,
// and the per-counter burst clouds the streaming path used to grow. The
// shared-permutation bucket sort and the sample-major clouds must reproduce
// it exactly, ties included.

func oracleSort(f *Folded) {
	for id := range f.Points {
		pts := f.Points[id]
		sort.SliceStable(pts, func(i, j int) bool { return pts[i].X < pts[j].X })
	}
	sort.SliceStable(f.Stacks, func(i, j int) bool { return f.Stacks[i].X < f.Stacks[j].X })
}

type oracleCloud struct {
	Points [counters.NumIDs][]Point
	Stacks []StackSample
}

func (c *oracleCloud) Observe(b *trace.Burst, s *trace.Sample) {
	dur := float64(b.Duration())
	if dur <= 0 {
		return
	}
	x := float64(s.Time-b.Start) / dur
	if x < 0 || x > 1 {
		return
	}
	for id := counters.ID(0); id < counters.NumIDs; id++ {
		sv, ok1 := s.Counters.Get(id)
		base, ok2 := b.StartCtr.Get(id)
		total, ok3 := b.Delta.Get(id)
		if !ok1 || !ok2 || !ok3 || total <= 0 {
			continue
		}
		y := sim.Clamp(float64(sv-base)/float64(total), 0, 1)
		c.Points[id] = append(c.Points[id], Point{X: x, Y: y})
	}
	if s.Stack != callstack.NoStack {
		c.Stacks = append(c.Stacks, StackSample{X: x, Stack: s.Stack})
	}
}

func (c *oracleCloud) NumPoints() int {
	n := 0
	for id := range c.Points {
		n += len(c.Points[id])
	}
	return n
}

func (c *oracleCloud) project(f *Folded) {
	for id := range c.Points {
		f.Points[id] = append(f.Points[id], c.Points[id]...)
	}
	f.Stacks = append(f.Stacks, c.Stacks...)
}

func cloneClouds(f *Folded) *Folded {
	g := &Folded{Stacks: slices.Clone(f.Stacks)}
	for id := range f.Points {
		g.Points[id] = slices.Clone(f.Points[id])
	}
	return g
}

// checkSortMatchesOracle sorts a copy of the pre-sort clouds in f both ways
// and requires identical clouds and timelines.
func checkSortMatchesOracle(t *testing.T, f *Folded) {
	t.Helper()
	want := cloneClouds(f)
	oracleSort(want)
	got := cloneClouds(f)
	sortClouds(got, new(foldScratch))
	for id := range want.Points {
		if !slices.Equal(got.Points[id], want.Points[id]) {
			t.Fatalf("counter %d (%d points): sorted cloud differs from sort.SliceStable", id, len(want.Points[id]))
		}
	}
	if !slices.Equal(got.Stacks, want.Stacks) {
		t.Fatalf("stack timeline (%d samples) differs from sort.SliceStable", len(want.Stacks))
	}
}

// genXs draws a pre-sort X sequence in one of three shapes: quantized
// (heavy ties), concatenated ascending runs (the real shape: each burst
// contributes its samples in time order), or uniform.
func genXs(r *rand.Rand, n int) []float64 {
	xs := make([]float64, n)
	q := float64([]int{1, 2, 3, 7, 16, 100}[r.Intn(6)])
	switch r.Intn(3) {
	case 0:
		for i := range xs {
			xs[i] = float64(r.Intn(int(q))) / q
		}
	case 1:
		for i := 0; i < n; {
			run := 1 + r.Intn(15)
			x := 0.0
			for ; run > 0 && i < n; run-- {
				x += float64(r.Intn(3)) / q
				xs[i] = min(x, 1)
				i++
			}
		}
	default:
		for i := range xs {
			xs[i] = r.Float64()
		}
	}
	return xs
}

// genClouds draws one cluster's pre-sort clouds around a common X sequence:
// each counter either follows it, follows a strict subsequence of it, is
// empty, or has an unrelated sequence; the stack timeline follows it, a
// shorter subsequence of it, or is empty. Lengths run from 0 to a few
// hundred, with 0–2 drawn often.
func genClouds(r *rand.Rand) *Folded {
	n := r.Intn(3)
	if r.Intn(4) != 0 {
		n = r.Intn(400)
	}
	xs := genXs(r, n)
	sub := func() []float64 {
		if len(xs) == 0 {
			return nil
		}
		drop := r.Intn(len(xs))
		var out []float64
		for i, x := range xs {
			if i != drop && r.Intn(4) != 0 {
				out = append(out, x)
			}
		}
		return out
	}
	f := &Folded{}
	for id := range f.Points {
		var cx []float64
		switch k := r.Intn(10); {
		case k < 6:
			cx = xs
		case k < 8:
			cx = sub()
		case k < 9:
			cx = nil
		default:
			cx = genXs(r, r.Intn(n+2))
		}
		for _, x := range cx {
			f.Points[id] = append(f.Points[id], Point{X: x, Y: r.Float64()})
		}
	}
	var sx []float64
	switch r.Intn(4) {
	case 0, 1:
		sx = xs
	case 2:
		sx = sub()
	}
	for _, x := range sx {
		f.Stacks = append(f.Stacks, StackSample{X: x, Stack: callstack.StackID(r.Intn(5))})
	}
	return f
}

func TestSortCloudsMatchesOracle(t *testing.T) {
	r := rand.New(rand.NewSource(18))
	for trial := 0; trial < 1500; trial++ {
		checkSortMatchesOracle(t, genClouds(r))
	}
}

// genBursts draws one rank's bursts and their samples. Counter groups rotate
// per burst as under a multiplexed PMU, some bursts carry a zero or missing
// delta for a counter (skipping it there), a few samples fall just outside
// their burst, and some carry no stack.
func genBursts(r *rand.Rand) ([]trace.Burst, [][]trace.Sample) {
	nb := r.Intn(12)
	bursts := make([]trace.Burst, nb)
	samples := make([][]trace.Sample, nb)
	now := sim.Time(0)
	mux := r.Intn(2) == 0
	for i := range bursts {
		dur := sim.Duration(1 + r.Intn(1000))
		b := trace.Burst{Rank: 0, Start: now, End: now + dur, Cluster: r.Intn(3) - 1, FirstSmp: -1}
		if r.Intn(10) == 0 {
			b.End = b.Start // degenerate: no projection at all
		}
		now += dur + 5
		b.StartCtr, b.Delta = counters.AllMissing(), counters.AllMissing()
		for id := counters.ID(0); id < counters.NumIDs; id++ {
			if mux && id > counters.Instructions && int(id)%4 != i%4 {
				continue
			}
			b.StartCtr.Put(id, int64(r.Intn(1000)))
			switch r.Intn(12) {
			case 0:
				b.Delta.Put(id, 0)
			case 1:
				b.StartCtr.Drop(id)
			default:
				b.Delta.Put(id, int64(1+r.Intn(5000)))
			}
		}
		for k := r.Intn(20); k > 0; k-- {
			s := trace.Sample{
				Time:     b.Start + sim.Duration(r.Intn(int(dur)+3)) - 1,
				Counters: counters.AllMissing(),
				Stack:    callstack.StackID(r.Intn(4)) - 1,
			}
			for id := counters.ID(0); id < counters.NumIDs; id++ {
				if base, ok := b.StartCtr.Get(id); ok && r.Intn(20) != 0 {
					s.Counters.Put(id, base+int64(r.Intn(6000))-100)
				}
			}
			samples[i] = append(samples[i], s)
		}
		bursts[i] = b
	}
	return bursts, samples
}

// TestCloudFoldMatchesOracle builds streamed burst clouds both ways from
// generated bursts, then folds each label through FoldWith over the new
// clouds and through the oracle (old clouds replayed in member order, then
// sort.SliceStable), and requires identical folded clouds.
func TestCloudFoldMatchesOracle(t *testing.T) {
	r := rand.New(rand.NewSource(1806))
	for trial := 0; trial < 600; trial++ {
		bursts, samples := genBursts(r)
		clouds := make(map[BurstKey]*BurstCloud)
		oracle := make(map[BurstKey]*oracleCloud)
		for i := range bursts {
			b := &bursts[i]
			if len(samples[i]) == 0 {
				continue
			}
			c, o := &BurstCloud{}, &oracleCloud{}
			for k := range samples[i] {
				c.Observe(b, &samples[i][k])
				o.Observe(b, &samples[i][k])
			}
			if c.NumPoints() != o.NumPoints() {
				t.Fatalf("trial %d burst %d: NumPoints %d, oracle %d", trial, i, c.NumPoints(), o.NumPoints())
			}
			clouds[KeyOf(b)], oracle[KeyOf(b)] = c, o
		}
		for label := 0; label < 2; label++ {
			want := &Folded{}
			for i := range bursts {
				if bursts[i].Cluster == label {
					if o := oracle[KeyOf(&bursts[i])]; o != nil {
						o.project(want)
					}
				}
			}
			oracleSort(want)
			got, err := FoldWith(CloudProjector(func(k BurstKey) *BurstCloud { return clouds[k] }), bursts, label, Options{})
			if err != nil {
				continue // no members with this label
			}
			for id := range want.Points {
				if !slices.Equal(got.Points[id], want.Points[id]) {
					t.Fatalf("trial %d label %d counter %d: folded cloud differs from oracle", trial, label, id)
				}
			}
			if !slices.Equal(got.Stacks, want.Stacks) {
				t.Fatalf("trial %d label %d: stack timeline differs from oracle", trial, label)
			}
		}
	}
}

// cloudsFromBytes decodes a fuzz input into pre-sort clouds: byte i is the
// X of sample i (in 1/256 steps, so repeated bytes tie), every counter whose
// bit is set in sub keeps only the samples with an even byte, and the stack
// timeline keeps the first stackLen samples (all of them at 255).
func cloudsFromBytes(data []byte, sub uint16, stackLen uint8) *Folded {
	if len(data) > 4096 {
		data = data[:4096]
	}
	f := &Folded{}
	for id := range f.Points {
		for i, b := range data {
			if sub&(1<<id) != 0 && b%2 != 0 {
				continue
			}
			f.Points[id] = append(f.Points[id], Point{X: float64(b) / 256, Y: float64(i*int(counters.NumIDs) + id)})
		}
	}
	n := len(data)
	if stackLen != 255 {
		n = min(n, int(stackLen))
	}
	for i, b := range data[:n] {
		f.Stacks = append(f.Stacks, StackSample{X: float64(b) / 256, Stack: callstack.StackID(i)})
	}
	return f
}

// FuzzSortCloud checks the fold's sort against its specification, a stable
// sort by X, ties included: the bucket distribution, the per-bucket sorts
// and the permutation shared between clouds.
func FuzzSortCloud(f *testing.F) {
	f.Add([]byte("the quick brown fox jumps over the lazy dog"), uint16(0), uint8(255))
	f.Add([]byte{3, 3, 3, 1, 1, 2, 2, 2, 0, 0, 3, 1}, uint16(0x0f0), uint8(7))
	f.Fuzz(func(t *testing.T, data []byte, sub uint16, stackLen uint8) {
		checkSortMatchesOracle(t, cloudsFromBytes(data, sub, stackLen))
	})
}
