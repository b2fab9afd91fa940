package cluster

import (
	"context"
	"testing"

	"phasefold/internal/counters"
	"phasefold/internal/sim"
	"phasefold/internal/trace"
)

// twoPopulations builds n bursts alternating between two well-separated
// behaviours: heavy compute (many instructions, high IPC) and light memory-
// bound work, with small deterministic wobble inside each group.
func twoPopulations(n int) []trace.Burst {
	bursts := make([]trace.Burst, 0, n)
	for i := 0; i < n; i++ {
		wobble := int64(i%5) * 1000
		if i%2 == 0 {
			bursts = append(bursts, mkBurst(10_000_000+wobble*100, 5_000_000+wobble*50, 100, 2*sim.Millisecond))
		} else {
			bursts = append(bursts, mkBurst(50_000+wobble, 500_000+wobble*10, 4000, sim.Millisecond))
		}
	}
	return bursts
}

func TestAssignorMatchesTrainedLabels(t *testing.T) {
	opt := DBSCANOptions{Eps: 0.1, MinPts: 3}
	feats := DefaultFeatures()
	prefix := twoPopulations(40)
	a, err := TrainAssignor(context.Background(), prefix, feats, opt)
	if err != nil {
		t.Fatal(err)
	}
	if a.NumClusters() != 2 {
		t.Fatalf("trained %d clusters, want 2", a.NumClusters())
	}
	if a.TrainedOn() != 40 {
		t.Fatalf("TrainedOn = %d, want 40", a.TrainedOn())
	}
	// Training must have labelled the prefix exactly as ClusterBursts would.
	check := twoPopulations(40)
	want, err := ClusterBursts(check, feats, opt)
	if err != nil {
		t.Fatal(err)
	}
	for i := range prefix {
		if prefix[i].Cluster != want[i] {
			t.Fatalf("prefix burst %d labelled %d, batch says %d", i, prefix[i].Cluster, want[i])
		}
	}
	// Fresh bursts from the same populations must inherit the group labels.
	held := twoPopulations(10)
	for i := range held {
		got := a.Assign(&held[i])
		if got != prefix[i%2].Cluster {
			t.Fatalf("held-out burst %d assigned %d, want %d", i, got, prefix[i%2].Cluster)
		}
		if held[i].Cluster != trace.ClusterNone {
			t.Fatal("Assign must not write the burst's Cluster field")
		}
	}
}

func TestAssignorNoise(t *testing.T) {
	opt := DBSCANOptions{Eps: 0.1, MinPts: 3}
	a, err := TrainAssignor(context.Background(), twoPopulations(40), DefaultFeatures(), opt)
	if err != nil {
		t.Fatal(err)
	}
	// A behaviour far from both training populations is noise.
	far := mkBurst(1_000_000_000_000, 100_000_000_000, 9, 10*sim.Millisecond)
	if got := a.Assign(&far); got != Noise {
		t.Fatalf("distant burst assigned %d, want Noise", got)
	}
	// A burst missing a required counter is noise.
	missing := mkBurst(10_000_000, 5_000_000, 100, 2*sim.Millisecond)
	missing.Delta.Drop(counters.Cycles)
	if got := a.Assign(&missing); got != Noise {
		t.Fatalf("counter-less burst assigned %d, want Noise", got)
	}
}

func TestAssignorEmptyTrain(t *testing.T) {
	if _, err := TrainAssignor(context.Background(), nil, DefaultFeatures(), DBSCANOptions{Eps: 0.1, MinPts: 3}); err == nil {
		t.Fatal("training on zero bursts must fail")
	}
}
