package folding_test

import (
	"context"
	"testing"

	"phasefold/internal/core"
	"phasefold/internal/folding"
	"phasefold/internal/sim"
	"phasefold/internal/simapp"
	"phasefold/internal/trace"
)

// denseFixture simulates cg for 200 iterations on 4 ranks, sampled every
// 100 µs with every counter and the call stack captured, and returns the
// trace with its clustered bursts and their labels — the shape of one
// streamed dense trace, where each fold sorts thousands of points per
// counter.
func denseFixture(b *testing.B) (*trace.Trace, []trace.Burst, []int) {
	opt := core.DefaultOptions()
	opt.SamplingPeriod = 100 * sim.Microsecond
	return analyzedFixture(b, "cg", simapp.Config{Ranks: 4, Iterations: 200, Seed: 42, FreqGHz: 2}, opt)
}

// analyzedFixture simulates app under cfg and opt, analyzes the trace, and
// returns it with its clustered bursts and the cluster labels.
func analyzedFixture(tb testing.TB, name string, cfg simapp.Config, opt core.Options) (*trace.Trace, []trace.Burst, []int) {
	tb.Helper()
	app, err := simapp.NewApp(name)
	if err != nil {
		tb.Fatal(err)
	}
	run, err := core.RunApp(app, cfg, opt)
	if err != nil {
		tb.Fatal(err)
	}
	m, err := core.Analyze(context.Background(), run.Trace, opt)
	if err != nil {
		tb.Fatal(err)
	}
	labels := make([]int, 0, len(m.Clusters))
	for _, ca := range m.Clusters {
		labels = append(labels, ca.Label)
	}
	return run.Trace, m.Bursts, labels
}

// BenchmarkFoldDense folds every cluster of the dense cg fixture out of the
// resident trace: projection plus the per-cluster sort.
func BenchmarkFoldDense(b *testing.B) {
	tr, bursts, labels := denseFixture(b)
	opt := folding.DefaultOptions()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		project := folding.TraceProjector(tr)
		for _, l := range labels {
			if _, err := folding.FoldWith(project, bursts, l, opt); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkBurstCloudObserve builds the streamed clouds of the dense cg
// fixture: every attached sample observed into its rank's clouds, as the
// streaming session does at sample attach time.
func BenchmarkBurstCloudObserve(b *testing.B) {
	tr, bursts, _ := denseFixture(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		observeClouds(tr, bursts)
	}
}

// BenchmarkFoldDenseStreamed folds every cluster of the dense cg fixture out
// of streamed burst clouds, as a streaming session's Done does.
func BenchmarkFoldDenseStreamed(b *testing.B) {
	tr, bursts, labels := denseFixture(b)
	project := streamedClouds(tr, bursts)
	opt := folding.DefaultOptions()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, l := range labels {
			if _, err := folding.FoldWith(project, bursts, l, opt); err != nil {
				b.Fatal(err)
			}
		}
	}
}
