package experiments

import (
	"context"

	"phasefold/internal/core"
	"phasefold/internal/counters"
	"phasefold/internal/metrics"
	"phasefold/internal/report"
	"phasefold/internal/simapp"
)

// A1Ablations quantifies the design choices DESIGN.md calls out, all on the
// multiphase workload: exact DP vs greedy splitting, BIC model selection vs
// a fixed (wrong) order, segment merging on/off, and burst outlier pruning
// on/off.
func A1Ablations(ctx context.Context) (*Result, error) {
	res := newResult("A1", "Ablations: fitter, model selection, merging, outlier pruning")
	cfg := defaultCfg()
	cfg.Iterations = 400

	type variant struct {
		name string
		slug string
		mut  func(o *core.Options)
	}
	variants := []variant{
		{"baseline (DP + BIC + merge + prune)", "baseline", func(o *core.Options) {}},
		{"greedy splitter", "greedy", func(o *core.Options) { o.PWL.Greedy = true }},
		{"fixed K=2 (under-provisioned)", "fixed_k2", func(o *core.Options) { o.PWL.FixedSegments = 2 }},
		{"fixed K=8 (over-provisioned)", "fixed_k8", func(o *core.Options) { o.PWL.FixedSegments = 8 }},
		{"no merge pass", "no_merge", func(o *core.Options) { o.PWL.MergeTol = 0; o.PWL.MinSegmentWidth = 0 }},
		{"no outlier pruning", "no_prune", func(o *core.Options) { o.Folding.DurationBand = 0 }},
		{"double BIC penalty", "penalty2", func(o *core.Options) { o.PWL.PenaltyScale = 2 }},
	}
	tb := report.NewTable("A1: ablation grid (multiphase, truth K=4)",
		"variant", "segments", "breakpoint_f1", "rel_mae")
	for _, v := range variants {
		opt := core.DefaultOptions()
		v.mut(&opt)
		model, run, err := analyze(ctx, "multiphase", cfg, opt)
		if err != nil {
			return nil, err
		}
		ca := model.ClusterByRegion(simapp.RegionMultiphaseStep)
		rt := run.Truth.Regions[simapp.RegionMultiphaseStep]
		if ca == nil || ca.Fit == nil {
			tb.AddRow(v.name, 0, 0, "-")
			continue
		}
		be := metrics.CompareBreakpoints(ca.Fit.Breakpoints, rt.Breakpoints(), 0.03)
		mae, err := profileError(ca, rt, 96)
		if err != nil {
			return nil, err
		}
		tb.AddRow(v.name, ca.Fit.K(), be.F1(), mae)
		res.Metrics["f1_"+v.slug] = be.F1()
		res.Metrics["mae_"+v.slug] = mae
	}
	res.Tables = append(res.Tables, tb)
	return res, nil
}

// A2SamplingModes compares the two sampling triggers the tool chain
// supports on the F1 reconstruction task: the virtual timer versus PMU
// overflow on the instruction counter (overflow concentrates samples in the
// busy phases, starving low-MIPS phases of points).
func A2SamplingModes(ctx context.Context) (*Result, error) {
	res := newResult("A2", "Sampling-mode ablation: timer vs instruction-overflow trigger")
	cfg := defaultCfg()
	cfg.Iterations = 400
	tb := report.NewTable("A2: sampling modes (multiphase, truth K=4)",
		"mode", "samples", "segments", "breakpoint_f1", "rel_mae")

	type mode struct {
		name string
		slug string
		mut  func(o *core.Options)
	}
	modes := []mode{
		{"timer, 1 ms", "timer", func(o *core.Options) {}},
		{"overflow, 2.5M instructions", "overflow", func(o *core.Options) {
			o.SamplingPeriod = 0
			o.SampleTrigger = counters.Instructions
			o.SampleTriggerPeriod = 2_500_000 // ~1 ms worth at the mean rate
		}},
	}
	for _, md := range modes {
		opt := core.DefaultOptions()
		md.mut(&opt)
		model, run, err := analyze(ctx, "multiphase", cfg, opt)
		if err != nil {
			return nil, err
		}
		ca := model.ClusterByRegion(simapp.RegionMultiphaseStep)
		rt := run.Truth.Regions[simapp.RegionMultiphaseStep]
		if ca == nil || ca.Fit == nil {
			tb.AddRow(md.name, run.Trace.NumSamples(), 0, 0, "-")
			continue
		}
		be := metrics.CompareBreakpoints(ca.Fit.Breakpoints, rt.Breakpoints(), 0.03)
		mae, err := profileError(ca, rt, 96)
		if err != nil {
			return nil, err
		}
		tb.AddRow(md.name, run.Trace.NumSamples(), ca.Fit.K(), be.F1(), mae)
		res.Metrics["f1_"+md.slug] = be.F1()
		res.Metrics["mae_"+md.slug] = mae
	}
	res.Tables = append(res.Tables, tb)
	return res, nil
}
