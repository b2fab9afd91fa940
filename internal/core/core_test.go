package core

import (
	"context"
	"errors"

	"math"
	"testing"
	"time"

	"phasefold/internal/counters"
	"phasefold/internal/metrics"
	"phasefold/internal/sim"
	"phasefold/internal/simapp"
	"phasefold/internal/trace"
)

func analyzeApp(t *testing.T, name string, cfg simapp.Config, opt Options) (*Model, *RunResult) {
	t.Helper()
	app, err := simapp.NewApp(name)
	if err != nil {
		t.Fatal(err)
	}
	model, run, err := AnalyzeApp(context.Background(), app, cfg, opt)
	if err != nil {
		t.Fatal(err)
	}
	return model, run
}

func TestMultiphaseRecoversAllFourPhases(t *testing.T) {
	cfg := simapp.Config{Ranks: 4, Iterations: 200, Seed: 42, FreqGHz: 2}
	model, run := analyzeApp(t, "multiphase", cfg, DefaultOptions())

	if model.NumClusters != 1 {
		t.Fatalf("found %d clusters, want 1", model.NumClusters)
	}
	if model.SPMDScore < 0.99 {
		t.Fatalf("SPMD score %v", model.SPMDScore)
	}
	ca := model.Clusters[0]
	if ca.Fit == nil {
		t.Fatal("primary fit missing")
	}
	truth := run.Truth.Regions[simapp.RegionMultiphaseStep]
	if len(ca.Phases) != len(truth.Phases) {
		t.Fatalf("detected %d phases, want %d", len(ca.Phases), len(truth.Phases))
	}
	// Breakpoints within 2% of truth.
	be := metrics.CompareBreakpoints(ca.Fit.Breakpoints, truth.Breakpoints(), 0.02)
	if be.Recall != 1 || be.Precision != 1 {
		t.Fatalf("breakpoint P/R = %v/%v (det %v truth %v)",
			be.Precision, be.Recall, ca.Fit.Breakpoints, truth.Breakpoints())
	}
	// Per-phase MIPS within 5% of truth; attribution lines exact.
	for i, ph := range ca.Phases {
		wantMIPS := truth.Phases[i].MIPS()
		if rel := math.Abs(ph.MIPS()-wantMIPS) / wantMIPS; rel > 0.05 {
			t.Errorf("phase %d MIPS %.0f vs truth %.0f (%.1f%% off)", i, ph.MIPS(), wantMIPS, 100*rel)
		}
		if !ph.Attributed {
			t.Errorf("phase %d unattributed", i)
			continue
		}
		if ph.Attribution.Line != truth.Phases[i].Line {
			t.Errorf("phase %d attributed to line %d, want %d", i, ph.Attribution.Line, truth.Phases[i].Line)
		}
	}
}

func TestPhaseGranularityBelowSamplingPeriod(t *testing.T) {
	// The paper's headline: the sampling period (1 ms) is much longer than
	// every phase (300-900 us), yet folding + PWL recovers them all.
	opt := DefaultOptions()
	opt.SamplingPeriod = 2 * sim.Millisecond // ~1 sample per iteration
	cfg := simapp.Config{Ranks: 4, Iterations: 400, Seed: 7, FreqGHz: 2}
	model, run := analyzeApp(t, "multiphase", cfg, opt)
	ca := model.Clusters[0]
	if ca.Fit == nil {
		t.Fatal("no fit at coarse sampling")
	}
	truth := run.Truth.Regions[simapp.RegionMultiphaseStep]
	be := metrics.CompareBreakpoints(ca.Fit.Breakpoints, truth.Breakpoints(), 0.03)
	if be.Recall < 1 {
		t.Fatalf("missed breakpoints at coarse sampling: %+v det=%v", be, ca.Fit.Breakpoints)
	}
}

func TestCGFindsThreeRegions(t *testing.T) {
	cfg := simapp.Config{Ranks: 4, Iterations: 150, Seed: 11, FreqGHz: 2}
	model, _ := analyzeApp(t, "cg", cfg, DefaultOptions())
	if model.NumClusters != 3 {
		t.Fatalf("cg produced %d clusters, want 3 (spmv/dot/axpy)", model.NumClusters)
	}
	spmv := model.ClusterByRegion(simapp.RegionCGSpMV)
	if spmv == nil || spmv.Fit == nil {
		t.Fatal("spmv cluster missing or unfit")
	}
	// SpMV must expose its internal gather/FMA split.
	if len(spmv.Phases) != 2 {
		t.Fatalf("spmv phases = %d, want 2 (bps %v)", len(spmv.Phases), spmv.Fit.Breakpoints)
	}
	// The gather phase is the low-IPC one and comes first.
	if !(spmv.Phases[0].Metrics[counters.IPC] < spmv.Phases[1].Metrics[counters.IPC]) {
		t.Fatalf("gather IPC %v not below FMA IPC %v",
			spmv.Phases[0].Metrics[counters.IPC], spmv.Phases[1].Metrics[counters.IPC])
	}
	if model.SPMDScore < 0.95 {
		t.Fatalf("cg SPMD score %v", model.SPMDScore)
	}
}

func TestStencilPhaseMetricsIdentifyBottlenecks(t *testing.T) {
	cfg := simapp.Config{Ranks: 4, Iterations: 150, Seed: 13, FreqGHz: 2}
	model, run := analyzeApp(t, "stencil", cfg, DefaultOptions())
	up := model.ClusterByRegion(simapp.RegionStencilUpdate)
	if up == nil || len(up.Phases) != 3 {
		t.Fatalf("update cluster phases: %+v", up)
	}
	truth := run.Truth.Regions[simapp.RegionStencilUpdate]
	// Phase 0 (load sweep) must show the highest L1 miss ratio; phase 1
	// (flux) the highest IPC — the analysis conclusion the case study
	// depends on.
	if !(up.Phases[0].Metrics[counters.L1MissRatio] > up.Phases[1].Metrics[counters.L1MissRatio]) {
		t.Fatal("load sweep not identified as cache-miss heavy")
	}
	if !(up.Phases[1].Metrics[counters.IPC] > up.Phases[0].Metrics[counters.IPC]) {
		t.Fatal("flux compute not identified as high IPC")
	}
	_ = truth
}

func TestMultiplexedScheduleStillResolvesPhases(t *testing.T) {
	opt := DefaultOptions()
	opt.Schedule = counters.NewSchedule(counters.DefaultGroups())
	cfg := simapp.Config{Ranks: 4, Iterations: 400, Seed: 17, FreqGHz: 2}
	model, run := analyzeApp(t, "multiphase", cfg, opt)
	ca := model.Clusters[0]
	if ca == nil || ca.Fit == nil {
		t.Fatal("no fit under multiplexing")
	}
	truth := run.Truth.Regions[simapp.RegionMultiphaseStep]
	be := metrics.CompareBreakpoints(ca.Fit.Breakpoints, truth.Breakpoints(), 0.03)
	if be.Recall < 1 {
		t.Fatalf("multiplexing lost breakpoints: det %v truth %v", ca.Fit.Breakpoints, truth.Breakpoints())
	}
	// Counters outside the instruction group must still get rates (from
	// their own folded subclouds).
	found := false
	for _, ph := range ca.Phases {
		if ph.RatesOK[counters.L1DMisses] {
			found = true
		}
	}
	if !found {
		t.Fatal("no phase recovered L1 rates under multiplexing")
	}
}

func TestRefinementPathWorks(t *testing.T) {
	opt := DefaultOptions()
	opt.UseRefinement = true
	cfg := simapp.Config{Ranks: 8, Iterations: 120, Seed: 19, FreqGHz: 2}
	model, _ := analyzeApp(t, "amr", cfg, opt)
	if model.NumClusters < 2 {
		t.Fatalf("refinement found %d clusters on amr, want >= 2 (advance + refine)", model.NumClusters)
	}
	if model.ClusterByRegion(simapp.RegionAMRAdvance) == nil {
		t.Fatal("advance region not detected")
	}
}

func TestAnalyzeRejectsEmptyTrace(t *testing.T) {
	tr := trace.New("empty", 1, nil, nil)
	if _, err := Analyze(context.Background(), tr, DefaultOptions()); err == nil {
		t.Fatal("empty trace analyzed without error")
	}
}

func TestModelLookupHelpers(t *testing.T) {
	cfg := simapp.Config{Ranks: 2, Iterations: 80, Seed: 23, FreqGHz: 2}
	model, _ := analyzeApp(t, "cg", cfg, DefaultOptions())
	for _, c := range model.Clusters {
		if got := model.Cluster(c.Label); got != c {
			t.Fatal("Cluster lookup broken")
		}
	}
	if model.Cluster(999) != nil {
		t.Fatal("unknown label returned a cluster")
	}
	if model.ClusterByRegion(999) != nil {
		t.Fatal("unknown region returned a cluster")
	}
}

func TestSamplingDisabled(t *testing.T) {
	opt := DefaultOptions()
	opt.SamplingPeriod = 0 // no sampler attached
	cfg := simapp.Config{Ranks: 2, Iterations: 50, Seed: 29, FreqGHz: 2}
	model, run := analyzeApp(t, "multiphase", cfg, opt)
	if run.Trace.NumSamples() != 0 {
		t.Fatal("samples recorded with sampling disabled")
	}
	// Clustering still works (burst counters come from probes); folding
	// has nothing to project, so no phases.
	if model.NumClusters < 1 {
		t.Fatal("clustering failed without samples")
	}
	for _, c := range model.Clusters {
		if c.Fit != nil {
			t.Fatal("fit produced without samples")
		}
	}
}

func TestDeterministicAnalysis(t *testing.T) {
	cfg := simapp.Config{Ranks: 2, Iterations: 100, Seed: 31, FreqGHz: 2}
	m1, _ := analyzeApp(t, "multiphase", cfg, DefaultOptions())
	m2, _ := analyzeApp(t, "multiphase", cfg, DefaultOptions())
	if m1.NumBursts != m2.NumBursts || m1.NumClusters != m2.NumClusters {
		t.Fatal("analysis not deterministic at the structure level")
	}
	f1, f2 := m1.Clusters[0].Fit, m2.Clusters[0].Fit
	if f1 == nil || f2 == nil || len(f1.Breakpoints) != len(f2.Breakpoints) {
		t.Fatal("fits differ across identical runs")
	}
	for i := range f1.Breakpoints {
		if f1.Breakpoints[i] != f2.Breakpoints[i] {
			t.Fatal("breakpoints differ across identical runs")
		}
	}
}

// TestSPMDScoreOfUnclusteredRanks: when no rank carries a clustered burst
// the score is 0 without an alignment, however many ranks the trace
// declares, and a cancelled context is still reported.
func TestSPMDScoreOfUnclusteredRanks(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	bursts := []trace.Burst{{Rank: 3, Cluster: -1}, {Rank: 19999, Cluster: -1}}
	if got, err := spmdScore(ctx, nil, 20000, bursts); got != 0 || err != nil {
		t.Fatalf("spmdScore over 20000 unclustered ranks = %v, %v; want 0, nil", got, err)
	}
	cancelled, stop := context.WithCancel(context.Background())
	stop()
	if _, err := spmdScore(cancelled, nil, 20000, bursts); !errors.Is(err, context.Canceled) {
		t.Fatalf("spmdScore under a cancelled context returned %v, want context.Canceled", err)
	}
}
