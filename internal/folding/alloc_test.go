package folding_test

import (
	"testing"

	"phasefold/internal/core"
	"phasefold/internal/counters"
	"phasefold/internal/folding"
	"phasefold/internal/simapp"
	"phasefold/internal/trace"
)

// streamedClouds builds every rank's streamed clouds, as a chunked session
// does at sample attach time, and returns their projector.
func streamedClouds(tr *trace.Trace, bursts []trace.Burst) folding.Projector {
	clouds := observeClouds(tr, bursts)
	return folding.CloudProjector(func(r int32) *folding.Clouds { return &clouds[r] })
}

// observeClouds observes every linked sample of bursts, which are in (rank,
// start) order, into its rank's clouds.
func observeClouds(tr *trace.Trace, bursts []trace.Burst) []folding.Clouds {
	clouds := make([]folding.Clouds, tr.NumRanks())
	for j := range bursts {
		b := &bursts[j]
		if b.FirstSmp < 0 || b.NumSmp == 0 {
			continue
		}
		smps := tr.Rank(int(b.Rank)).Samples[b.FirstSmp : b.FirstSmp+b.NumSmp]
		for k := range smps {
			clouds[b.Rank].Observe(b, &smps[k])
		}
	}
	return clouds
}

// checkExactClouds requires every cloud and the stack timeline of f to have
// been allocated at exactly its final size, and returns the number of
// non-empty ones.
func checkExactClouds(t *testing.T, f *folding.Folded) (nonEmpty int) {
	t.Helper()
	for id, pts := range f.Points {
		if cap(pts) != len(pts) {
			t.Fatalf("cluster %d, %v: cloud of %d points has capacity %d", f.Cluster, counters.ID(id), len(pts), cap(pts))
		}
		if len(pts) > 0 {
			nonEmpty++
		}
	}
	if cap(f.Stacks) != len(f.Stacks) {
		t.Fatalf("cluster %d: stack timeline of %d samples has capacity %d", f.Cluster, len(f.Stacks), cap(f.Stacks))
	}
	if len(f.Stacks) > 0 {
		nonEmpty++
	}
	return nonEmpty
}

// TestFoldAllocsNativePMU pins the fold's allocations on a native-PMU trace,
// where every sample carries every counter: at most one per non-empty cloud
// and one for the stack timeline, plus the Folded itself — the medians
// select in the pooled scratch, and every cloud is allocated once, at its
// size.
func TestFoldAllocsNativePMU(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops pooled scratch at random")
	}
	tr, bursts, labels := analyzedFixture(t, "multiphase", simapp.Config{Ranks: 2, Iterations: 80, Seed: 7, FreqGHz: 2}, core.DefaultOptions())
	opt := folding.DefaultOptions()
	for name, project := range map[string]folding.Projector{"trace": folding.TraceProjector(tr), "clouds": streamedClouds(tr, bursts)} {
		for _, l := range labels {
			f, err := folding.FoldWith(project, bursts, l, opt)
			if err != nil {
				t.Fatal(err)
			}
			want := float64(checkExactClouds(t, f) + 1)
			allocs := testing.AllocsPerRun(20, func() {
				if _, err := folding.FoldWith(project, bursts, l, opt); err != nil {
					t.Fatal(err)
				}
			})
			if allocs > want {
				t.Errorf("%s projector, cluster %d: %.0f allocations per fold, want at most %.0f", name, l, allocs, want)
			}
		}
	}
}

// TestFoldMultiplexedCloudsExact folds a trace whose counters rotate through
// multiplexed groups, so the clouds differ in length: each is still
// allocated at exactly its size, through either projector.
func TestFoldMultiplexedCloudsExact(t *testing.T) {
	opt := core.DefaultOptions()
	opt.Schedule = counters.NewSchedule(counters.DefaultGroups())
	tr, bursts, labels := analyzedFixture(t, "multiphase", simapp.Config{Ranks: 2, Iterations: 80, Seed: 7, FreqGHz: 2}, opt)
	lengths := map[int]bool{}
	for _, project := range []folding.Projector{folding.TraceProjector(tr), streamedClouds(tr, bursts)} {
		for _, l := range labels {
			f, err := folding.FoldWith(project, bursts, l, opt.Folding)
			if err != nil {
				t.Fatal(err)
			}
			checkExactClouds(t, f)
			for _, pts := range f.Points {
				lengths[len(pts)] = true
			}
		}
	}
	if len(lengths) < 3 {
		t.Fatalf("cloud lengths %v: the schedule did not multiplex the counters", lengths)
	}
}
