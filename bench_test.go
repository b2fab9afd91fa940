package phasefold_test

import (
	"context"
	"sync"
	"testing"

	"phasefold/internal/experiments"
)

// Each benchmark regenerates one table or figure of the evaluation (see
// DESIGN.md's experiment index and EXPERIMENTS.md for the recorded output).
// The rendered artefacts are logged once per benchmark; the timing measures
// the full experiment pipeline (simulated acquisition + analysis).
//
// Run with:
//
//	go test -bench=. -benchmem
//
// and see bench_output.txt for a captured run.

var logOnce sync.Map

func runExperiment(b *testing.B, id string) {
	b.Helper()
	r, err := experiments.ByID(id)
	if err != nil {
		b.Fatal(err)
	}
	var res *experiments.Result
	for i := 0; i < b.N; i++ {
		res, err = r.Run(context.Background())
		if err != nil {
			b.Fatal(err)
		}
	}
	if _, logged := logOnce.LoadOrStore(id, true); !logged {
		for _, tb := range res.Tables {
			b.Logf("\n%s", tb.String())
		}
		for _, p := range res.Plots {
			b.Logf("\n%s", p.String())
		}
	}
	for k, v := range res.Metrics {
		b.ReportMetric(v, k)
	}
}

// BenchmarkF1FoldedMIPSProfile regenerates figure F1: the folded MIPS
// profile with PWL phases vs ground truth, plus the phase table.
func BenchmarkF1FoldedMIPSProfile(b *testing.B) { runExperiment(b, "F1") }

// BenchmarkF2ErrorVsIterations regenerates figure F2: reconstruction error
// as a function of folded iteration count.
func BenchmarkF2ErrorVsIterations(b *testing.B) { runExperiment(b, "F2") }

// BenchmarkF3CoarseVsFine regenerates figure F3: coarse-sampling folding vs
// fine-grain sampling.
func BenchmarkF3CoarseVsFine(b *testing.B) { runExperiment(b, "F3") }

// BenchmarkT1BreakpointAccuracy regenerates table T1: breakpoint placement
// accuracy across the sampling-period × iteration grid.
func BenchmarkT1BreakpointAccuracy(b *testing.B) { runExperiment(b, "T1") }

// BenchmarkT2Overhead regenerates table T2: acquisition overhead of the
// minimal-instrumentation + coarse-sampling configuration vs fine-grain
// alternatives.
func BenchmarkT2Overhead(b *testing.B) { runExperiment(b, "T2") }

// BenchmarkT3ClusteringQuality regenerates table T3: DBSCAN vs Aggregative
// Cluster Refinement structure detection.
func BenchmarkT3ClusteringQuality(b *testing.B) { runExperiment(b, "T3") }

// BenchmarkF4SourceMapping regenerates figure/table F4: phase-to-source
// attribution accuracy.
func BenchmarkF4SourceMapping(b *testing.B) { runExperiment(b, "F4") }

// BenchmarkT4CaseStudies regenerates table T4: the guided-optimization case
// studies with measured speedups.
func BenchmarkT4CaseStudies(b *testing.B) { runExperiment(b, "T4") }

// BenchmarkF5Multiplexing regenerates figure/table F5: counter-group
// multiplexing vs native PMU.
func BenchmarkF5Multiplexing(b *testing.B) { runExperiment(b, "F5") }

// BenchmarkF6PWLvsKernel regenerates figure F6: the PWL-vs-kernel-smoother
// ablation.
func BenchmarkF6PWLvsKernel(b *testing.B) { runExperiment(b, "F6") }

// BenchmarkA1Ablations regenerates table A1: the design-choice ablation
// grid (DP vs greedy, BIC vs fixed K, merge pass, outlier pruning).
func BenchmarkA1Ablations(b *testing.B) { runExperiment(b, "A1") }

// BenchmarkA2SamplingModes regenerates table A2: timer-based vs
// instruction-overflow sampling.
func BenchmarkA2SamplingModes(b *testing.B) { runExperiment(b, "A2") }

// BenchmarkF10PowerPhases regenerates table F10: per-phase power and energy
// from the folded energy counter.
func BenchmarkF10PowerPhases(b *testing.B) { runExperiment(b, "F10") }

// BenchmarkR1Robustness regenerates table R1: phase-recovery error vs
// injected acquisition-fault rate under degraded-mode analysis.
func BenchmarkR1Robustness(b *testing.B) { runExperiment(b, "R1") }

// BenchmarkR2ExecutionGuards regenerates table R2: a supervised batch over
// hostile inputs (hangs, slow readers, panics, truncation, budget blowouts)
// stays within its wall-clock bound with every job in a defined outcome.
// Each iteration deliberately pays the real per-job timeouts of the two
// hanging inputs, so the figure reflects batch wall-clock, not throughput.
func BenchmarkR2ExecutionGuards(b *testing.B) { runExperiment(b, "R2") }
