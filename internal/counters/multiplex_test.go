package counters

import (
	"math"
	"testing"
)

func TestDefaultGroupsCoverEverything(t *testing.T) {
	s := NewSchedule(DefaultGroups())
	for _, id := range AllIDs() {
		if !s.Covers(id) {
			t.Errorf("default schedule does not cover %v", id)
		}
	}
	if got := len(s.Coverage()); got != int(NumIDs) {
		t.Errorf("coverage lists %d counters, want %d", got, NumIDs)
	}
}

func TestEveryGroupHasCommonBasis(t *testing.T) {
	for _, g := range DefaultGroups() {
		hasIns, hasCyc := false, false
		for _, id := range g.IDs {
			if id == Instructions {
				hasIns = true
			}
			if id == Cycles {
				hasCyc = true
			}
		}
		if !hasIns || !hasCyc {
			t.Errorf("group %q lacks the Instructions+Cycles basis", g.Name)
		}
	}
}

func TestScheduleRotation(t *testing.T) {
	s := NewSchedule(DefaultGroups())
	n := s.Len()
	for i := 0; i < 3*n; i++ {
		if got, want := s.Group(i).Name, s.Group(i%n).Name; got != want {
			t.Fatalf("rotation index %d gave %q, want %q", i, got, want)
		}
	}
}

func TestNewSchedulePanics(t *testing.T) {
	for name, groups := range map[string][]Group{
		"empty":       nil,
		"no counters": {{Name: "x"}},
		"invalid id":  {{Name: "x", IDs: []ID{ID(99)}}},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: NewSchedule did not panic", name)
				}
			}()
			NewSchedule(groups)
		}()
	}
}

func TestExtrapolatorRecoversConstantRatios(t *testing.T) {
	// A workload with constant per-instruction ratios, observed under the
	// rotating default groups, must be reconstructed exactly.
	groups := DefaultGroups()
	var full Set
	full.Put(Instructions, 1_000_000)
	full.Put(Cycles, 2_000_000)
	full.Put(L1DMisses, 50_000)
	full.Put(L2Misses, 20_000)
	full.Put(L3Misses, 5_000)
	full.Put(Loads, 300_000)
	full.Put(Stores, 100_000)
	full.Put(Branches, 150_000)
	full.Put(BranchMisses, 3_000)
	full.Put(FPOps, 400_000)

	var ex Extrapolator
	for round := 0; round < 8; round++ {
		g := groups[round%len(groups)]
		ex.Observe(full.MaskedTo(g.IDs))
	}
	if ex.Observations() != 8 {
		t.Fatalf("Observations = %d, want 8", ex.Observations())
	}
	ins, _ := full.Get(Instructions)
	proj := ex.Project(10 * ins)
	for _, id := range AllIDs() {
		got, ok := proj.Get(id)
		if !ok {
			t.Errorf("counter %v missing from projection", id)
			continue
		}
		v, _ := full.Get(id)
		want := 10 * v
		if math.Abs(float64(got-want)) > 1 { // integer truncation tolerance
			t.Errorf("projected %v = %d, want %d", id, got, want)
		}
	}
}

func TestExtrapolatorIgnoresUnusableObservations(t *testing.T) {
	var ex Extrapolator
	ex.Observe(AllMissing()) // no instructions: ignored
	var zeroIns Set
	zeroIns.Put(Instructions, 0)
	ex.Observe(zeroIns) // zero instructions: ignored
	if ex.Observations() != 0 {
		t.Fatalf("unusable observations were counted: %d", ex.Observations())
	}
	proj := ex.Project(100)
	if v, ok := proj.Get(Instructions); !ok || v != 100 {
		t.Fatalf("projection instructions = (%d, %v)", v, ok)
	}
	if _, ok := proj.Get(L1DMisses); ok {
		t.Fatal("unobserved counter projected")
	}
}

func TestExtrapolatorMeanRatio(t *testing.T) {
	var ex Extrapolator
	var o1, o2 Set
	o1 = AllMissing()
	o2 = AllMissing()
	o1.Put(Instructions, 1000)
	o1.Put(L1DMisses, 10)
	o2.Put(Instructions, 1000)
	o2.Put(L1DMisses, 30)
	ex.Observe(o1)
	ex.Observe(o2)
	r, ok := ex.MeanRatio(L1DMisses)
	if !ok || math.Abs(r-0.02) > 1e-12 {
		t.Fatalf("MeanRatio = (%v, %v), want (0.02, true)", r, ok)
	}
	if _, ok := ex.MeanRatio(FPOps); ok {
		t.Fatal("MeanRatio for unobserved counter returned ok")
	}
	if _, ok := ex.MeanRatio(ID(99)); ok {
		t.Fatal("MeanRatio for invalid counter returned ok")
	}
}

func TestProjectNegativeTotal(t *testing.T) {
	var ex Extrapolator
	if got := ex.Project(-5); got != AllMissing() {
		t.Fatal("negative total should project all-Missing")
	}
}

func TestNativeGroup(t *testing.T) {
	g := NativeGroup()
	if len(g) != 1 || len(g[0].IDs) != int(NumIDs) {
		t.Fatal("native group must capture every counter in one group")
	}
}
