// Package experiments regenerates every table and figure of the evaluation
// (as reconstructed in DESIGN.md): each experiment returns rendered tables
// and plots plus headline metrics, so the benchmark harness, the
// phasereport tool, and EXPERIMENTS.md all draw from the same code.
package experiments

import (
	"context"
	"fmt"
	"sort"

	"phasefold/internal/core"
	"phasefold/internal/counters"
	"phasefold/internal/metrics"
	"phasefold/internal/pwl"
	"phasefold/internal/report"
	"phasefold/internal/simapp"
)

// Result is one regenerated experiment.
type Result struct {
	// ID is the experiment identifier from DESIGN.md (F1, T2, ...).
	ID string
	// Title describes what the experiment shows.
	Title string
	// Tables and Plots are the rendered artefacts.
	Tables []*report.Table
	Plots  []*report.Plot
	// Metrics holds the headline numbers, keyed by a stable name, for
	// EXPERIMENTS.md and for assertions in tests.
	Metrics map[string]float64
}

func newResult(id, title string) *Result {
	return &Result{ID: id, Title: title, Metrics: make(map[string]float64)}
}

// Runner is an experiment entry point. Run honours ctx: cancellation
// interrupts the underlying analyses and returns the context's error.
type Runner struct {
	ID   string
	Name string
	Run  func(ctx context.Context) (*Result, error)
}

// All lists every experiment in DESIGN.md order.
func All() []Runner {
	return []Runner{
		{"F1", "folded MIPS profile", F1FoldedProfile},
		{"F2", "error vs iterations", F2ErrorVsIterations},
		{"F3", "coarse vs fine sampling", F3CoarseVsFine},
		{"T1", "breakpoint accuracy sweep", T1BreakpointAccuracy},
		{"T2", "instrumentation overhead", T2Overhead},
		{"T3", "clustering quality", T3ClusteringQuality},
		{"F4", "source mapping accuracy", F4SourceMapping},
		{"T4", "case studies", T4CaseStudies},
		{"F5", "counter multiplexing", F5Multiplexing},
		{"F6", "PWL vs kernel smoother", F6PWLvsKernel},
		{"F10", "per-phase power from folded energy", F10PowerPhases},
		{"A1", "design-choice ablations", A1Ablations},
		{"A2", "sampling-mode ablation", A2SamplingModes},
		{"R1", "robustness to injected faults", R1Robustness},
		{"R2", "execution guards under batch supervision", R2ExecutionGuards},
	}
}

// ByID returns the experiment runner with the given id.
func ByID(id string) (Runner, error) {
	for _, r := range All() {
		if r.ID == id {
			return r, nil
		}
	}
	return Runner{}, fmt.Errorf("experiments: unknown experiment %q", id)
}

// defaultCfg is the acquisition configuration shared by the experiments
// unless a sweep varies it.
func defaultCfg() simapp.Config {
	return simapp.Config{Ranks: 4, Iterations: 300, Seed: 42, FreqGHz: 2}
}

// analyze runs an app through the pipeline.
func analyze(ctx context.Context, appName string, cfg simapp.Config, opt core.Options) (*core.Model, *core.RunResult, error) {
	app, err := simapp.NewApp(appName)
	if err != nil {
		return nil, nil, err
	}
	return core.AnalyzeApp(ctx, app, cfg, opt)
}

// truthMIPS returns the ground-truth MIPS profile of a region as a function
// of normalized time.
func truthMIPS(rt *simapp.RegionTruth) func(x float64) float64 {
	return func(x float64) float64 {
		return rt.RateAt(x)[counters.Instructions] / 1e6
	}
}

// reconstructedMIPS samples the reconstructed MIPS profile of a cluster
// analysis on an n-point grid; ok is false when the cluster has no fit.
func reconstructedMIPS(ca *core.ClusterAnalysis, n int) ([]float64, bool) {
	if ca == nil || ca.Fit == nil {
		return nil, false
	}
	scale, ok := ca.Folded.RateScale(counters.Instructions)
	if !ok {
		return nil, false
	}
	return metrics.SampleRates(ca.Fit, scale/1e6, n), true
}

// profileError returns the relative MAE between a cluster's reconstructed
// MIPS profile and the region truth, on an n-point grid.
func profileError(ca *core.ClusterAnalysis, rt *simapp.RegionTruth, n int) (float64, error) {
	got, ok := reconstructedMIPS(ca, n)
	if !ok {
		return 0, fmt.Errorf("experiments: cluster has no usable fit")
	}
	want := metrics.SampleTruthRates(truthMIPS(rt), n)
	return metrics.RelMAE(got, want), nil
}

// foldedXY flattens a cluster's folded cloud for one counter.
func foldedXY(ca *core.ClusterAnalysis, id counters.ID) (xs, ys []float64) {
	pts := ca.Folded.Points[id]
	xs = make([]float64, len(pts))
	ys = make([]float64, len(pts))
	for i, p := range pts {
		xs[i] = p.X
		ys[i] = p.Y
	}
	return xs, ys
}

// fitKernel fits the kernel-smoother comparator with automatic bandwidth.
func fitKernel(xs, ys []float64) (*pwl.KernelModel, error) {
	return pwl.FitKernel(xs, ys, 0)
}

// sortedRegionIDs returns a truth registry's region ids in ascending order.
func sortedRegionIDs(t *simapp.Truth) []int64 {
	ids := make([]int64, 0, len(t.Regions))
	for id := range t.Regions {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}
