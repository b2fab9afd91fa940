package cluster

import (
	"math"
	"testing"

	"phasefold/internal/counters"
	"phasefold/internal/sim"
	"phasefold/internal/trace"
)

func mkBurst(ins, cyc, l1 int64, dur sim.Duration) trace.Burst {
	d := counters.AllMissing()
	d.Put(counters.Instructions, ins)
	d.Put(counters.Cycles, cyc)
	d.Put(counters.L1DMisses, l1)
	d.Put(counters.Loads, ins/3)
	d.Put(counters.Stores, ins/10)
	return trace.Burst{Start: 0, End: dur, Delta: d, Cluster: trace.ClusterNone}
}

func TestFeatureValues(t *testing.T) {
	b := mkBurst(1_000_000, 2_000_000, 5000, sim.Millisecond)
	cases := []struct {
		f    Feature
		want float64
	}{
		{FeatLogInstructions, 6},
		{FeatLogDuration, 6}, // 1 ms = 1e6 ns
		{FeatIPC, 0.5},
		{FeatL1PerKI, 5},
	}
	for _, c := range cases {
		got, ok := featureOf(&b, c.f)
		if !ok {
			t.Errorf("%v not computable", c.f)
			continue
		}
		if math.Abs(got-c.want) > 1e-9 {
			t.Errorf("%v = %v, want %v", c.f, got, c.want)
		}
	}
	// Mem ratio = (ins/3 + ins/10)/ins.
	got, ok := featureOf(&b, FeatMemRatio)
	if !ok || math.Abs(got-(1.0/3+0.1)) > 1e-6 {
		t.Errorf("mem ratio = (%v, %v)", got, ok)
	}
}

func TestFeatureMissingCounter(t *testing.T) {
	b := mkBurst(1000, 2000, 5, sim.Millisecond)
	b.Delta.Drop(counters.Cycles)
	if _, ok := featureOf(&b, FeatIPC); ok {
		t.Fatal("IPC computed without cycles")
	}
	if _, ok := featureOf(&b, FeatLogInstructions); !ok {
		t.Fatal("log instructions should not need cycles")
	}
}

func TestExtractMarksInvalid(t *testing.T) {
	bursts := []trace.Burst{
		mkBurst(1000, 2000, 5, sim.Millisecond),
		mkBurst(0, 2000, 5, sim.Millisecond), // zero instructions: log undefined
	}
	pts, valid := Extract(bursts, DefaultFeatures())
	if !valid[0] || valid[1] {
		t.Fatalf("validity = %v", valid)
	}
	if len(pts[0]) != 2 {
		t.Fatalf("feature dimension %d", len(pts[0]))
	}
}

func TestNormalizeMinMax(t *testing.T) {
	pts := []Point{{0, 10}, {5, 20}, {10, 30}}
	mins, maxs := Normalize(pts, nil, nil)
	if mins[0] != 0 || maxs[0] != 10 || mins[1] != 10 || maxs[1] != 30 {
		t.Fatalf("mins=%v maxs=%v", mins, maxs)
	}
	if pts[0][0] != 0 || pts[2][0] != 1 || pts[1][1] != 0.5 {
		t.Fatalf("normalized = %v", pts)
	}
}

func TestNormalizeMinSpanPreventsNoiseBlowup(t *testing.T) {
	// All points nearly identical: with a minimum span of 1, the
	// normalized spread must stay tiny instead of filling [0,1].
	pts := []Point{{5.00, 1.00}, {5.02, 1.01}, {5.04, 1.02}}
	Normalize(pts, nil, []float64{1, 1})
	for _, p := range pts {
		for _, v := range p {
			if v > 0.05 {
				t.Fatalf("min-span normalization produced %v; noise blown up", v)
			}
		}
	}
}

func TestNormalizeConstantDimension(t *testing.T) {
	pts := []Point{{3, 1}, {3, 2}}
	Normalize(pts, nil, nil)
	if pts[0][0] != 0 || pts[1][0] != 0 {
		t.Fatal("constant dimension must normalize to 0")
	}
}

func TestNormalizeSkipsInvalid(t *testing.T) {
	pts := []Point{{0, 0}, nil, {10, 10}}
	valid := []bool{true, false, true}
	Normalize(pts, valid, nil)
	if pts[1] != nil {
		t.Fatal("invalid row touched")
	}
	if pts[2][0] != 1 {
		t.Fatal("valid rows not normalized")
	}
}

func TestClusterBurstsEndToEnd(t *testing.T) {
	var bursts []trace.Burst
	// Two behaviours: "spmv-like" (IPC 0.5, 1e6 instr) and "axpy-like"
	// (IPC 2, 1e5 instr), 50 each with small noise.
	rng := sim.NewRNG(3)
	for i := 0; i < 50; i++ {
		ins := int64(rng.Jitter(1e6, 0.05))
		bursts = append(bursts, mkBurst(ins, 2*ins, ins/50, sim.Millisecond))
	}
	for i := 0; i < 50; i++ {
		ins := int64(rng.Jitter(1e5, 0.05))
		bursts = append(bursts, mkBurst(ins, ins/2, ins/500, 100*sim.Microsecond))
	}
	labels, err := ClusterBursts(bursts, DefaultFeatures(), DBSCANOptions{Eps: 0.05, MinPts: 4})
	if err != nil {
		t.Fatal(err)
	}
	if NumClusters(labels) != 2 {
		t.Fatalf("found %d clusters, want 2", NumClusters(labels))
	}
	if labels[0] == labels[50] {
		t.Fatal("distinct behaviours merged")
	}
	for i := range bursts {
		if bursts[i].Cluster != labels[i] {
			t.Fatal("labels not written into bursts")
		}
	}
}

func TestFeatureNames(t *testing.T) {
	seen := map[string]bool{}
	for f := Feature(0); f < numFeatures; f++ {
		n := f.String()
		if n == "" || seen[n] {
			t.Fatalf("feature %d bad name %q", f, n)
		}
		seen[n] = true
		if f.MinSpan() <= 0 {
			t.Fatalf("feature %v has non-positive MinSpan", f)
		}
	}
	if Feature(99).String() == "" {
		t.Fatal("invalid feature name empty")
	}
}

func TestMinSpansAlignment(t *testing.T) {
	feats := DefaultFeatures()
	spans := MinSpans(feats)
	if len(spans) != len(feats) {
		t.Fatal("MinSpans length mismatch")
	}
	for i, f := range feats {
		if spans[i] != f.MinSpan() {
			t.Fatal("MinSpans misaligned")
		}
	}
}
