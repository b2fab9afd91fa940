package experiments

import (
	"context"
	"fmt"
	"math"

	"phasefold/internal/core"
	"phasefold/internal/counters"
	"phasefold/internal/folding"
	"phasefold/internal/metrics"
	"phasefold/internal/pwl"
	"phasefold/internal/report"
	"phasefold/internal/sim"
	"phasefold/internal/simapp"
	"phasefold/internal/spectral"
	"phasefold/internal/trace"
	"phasefold/internal/tracking"
)

// F7SpectralPeriod validates the signal-analysis stage (ICPADS'11
// companion): with *no* iteration markers consulted, the autocorrelation of
// the sampled instruction-rate signal recovers each application's iteration
// period, and selects a self-similar representative window — the entry
// point for analyzing sampling-only traces.
func F7SpectralPeriod(ctx context.Context) (*Result, error) {
	res := newResult("F7", "Markerless iteration-period detection by spectral analysis")
	tb := report.NewTable("F7: detected period vs true iteration duration",
		"app", "true_iter", "detected", "rel_err", "strength", "window_score")
	worst := 0.0
	for _, name := range []string{"multiphase", "cg", "stencil", "nbody"} {
		app, err := simapp.NewApp(name)
		if err != nil {
			return nil, err
		}
		opt := core.DefaultOptions()
		opt.SamplingPeriod = 100 * sim.Microsecond
		cfg := simapp.Config{Ranks: 1, Iterations: 100, Seed: 5, FreqGHz: 2}
		run, err := core.RunApp(app, cfg, opt)
		if err != nil {
			return nil, err
		}
		trueIter, err := meanIterDuration(run.Trace, 0)
		if err != nil {
			return nil, err
		}
		sig, err := spectral.BuildSignal(run.Trace, 0, counters.Instructions, 50*sim.Microsecond)
		if err != nil {
			return nil, err
		}
		p, err := spectral.DetectPeriod(sig, 0.3)
		if err != nil {
			return nil, fmt.Errorf("experiments: F7 %s: %w", name, err)
		}
		w, err := spectral.SelectRepresentative(sig, p, 8)
		if err != nil {
			return nil, fmt.Errorf("experiments: F7 %s: %w", name, err)
		}
		rel := math.Abs(float64(p.Duration)-float64(trueIter)) / float64(trueIter)
		tb.AddRow(name, trueIter.String(), p.Duration.String(), rel, p.Strength, w.Score)
		res.Metrics[name+"_rel_err"] = rel
		if rel > worst {
			worst = rel
		}
	}
	res.Tables = append(res.Tables, tb)
	res.Metrics["worst_rel_err"] = worst
	return res, nil
}

// meanIterDuration reads the true mean iteration duration from the
// iteration markers (ground truth the spectral path does not see).
func meanIterDuration(tr *trace.Trace, rank int) (sim.Duration, error) {
	var first, last sim.Time
	n := 0
	for _, e := range tr.Rank(rank).Events {
		if e.Type == trace.IterBegin {
			if n == 0 {
				first = e.Time
			}
			last = e.Time
			n++
		}
	}
	if n < 2 {
		return 0, fmt.Errorf("experiments: rank %d has %d iterations", rank, n)
	}
	return (last - first) / sim.Duration(n-1), nil
}

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

// F8MarkerlessFolding pushes the spectral path end to end: fold a
// *sampling-only* view of the trace using windows cut at the detected
// period (no instrumentation events consulted at all) and fit the folded
// cloud. Phase-boundary positions shift by the unknown alignment offset, so
// the score is the recovered phase *count* and the rate dynamic range.
func F8MarkerlessFolding(ctx context.Context) (*Result, error) {
	res := newResult("F8", "Folding without instrumentation: period-cut windows")
	app, err := simapp.NewApp("multiphase")
	if err != nil {
		return nil, err
	}
	opt := core.DefaultOptions()
	opt.SamplingPeriod = 150 * sim.Microsecond
	cfg := simapp.Config{Ranks: 1, Iterations: 300, Seed: 9, FreqGHz: 2}
	run, err := core.RunApp(app, cfg, opt)
	if err != nil {
		return nil, err
	}
	sig, err := spectral.BuildSignal(run.Trace, 0, counters.Instructions, 50*sim.Microsecond)
	if err != nil {
		return nil, err
	}
	p, err := spectral.DetectPeriod(sig, 0.3)
	if err != nil {
		return nil, err
	}
	// Cut synthetic per-period bursts over a representative window and fold
	// the samples into them. Iteration jitter makes long stretches drift
	// out of phase, so only a limited window is folded — exactly the
	// "representative periods" compromise of the ICPADS'11 tool.
	w, err := spectral.SelectRepresentative(sig, p, 24)
	if err != nil {
		return nil, err
	}
	bursts := cutPeriods(run.Trace, 0, w.Start, w.End, p.Duration)
	if len(bursts) < 8 {
		return nil, fmt.Errorf("experiments: F8 cut only %d windows", len(bursts))
	}
	f, err := folding.Fold(run.Trace, bursts, 0, folding.Options{})
	if err != nil {
		return nil, err
	}
	xs := make([]float64, 0, f.NumPoints(counters.Instructions))
	ys := make([]float64, 0, cap(xs))
	for _, pt := range f.Points[counters.Instructions] {
		xs = append(xs, pt.X)
		ys = append(ys, pt.Y)
	}
	fitOpt := pwl.DefaultOptions()
	fit, err := pwl.Fit(xs, ys, fitOpt)
	if err != nil {
		return nil, err
	}
	scale, _ := f.RateScale(counters.Instructions)
	minR, maxR := math.Inf(1), math.Inf(-1)
	for _, s := range fit.Segments() {
		r := s.Slope * scale / 1e6
		if r < minR {
			minR = r
		}
		if r > maxR {
			maxR = r
		}
	}
	tb := report.NewTable("F8: markerless folding (multiphase, truth K=4, MIPS 900..4800)",
		"detected_period", "windows_folded", "folded_points", "segments", "min_MIPS", "max_MIPS")
	tb.AddRow(p.Duration.String(), f.UsedBursts, len(xs), fit.K(), minR, maxR)
	res.Tables = append(res.Tables, tb)
	res.Metrics["segments"] = float64(fit.K())
	res.Metrics["min_mips"] = minR
	res.Metrics["max_mips"] = maxR
	res.Metrics["dynamic_range"] = maxR / math.Max(minR, 1)
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

// F9Tracking validates the cross-scenario analysis (SC'13 companion):
// clusters detected independently per scenario are matched across a
// problem-size sweep of the CG solver, and per-track trends expose which
// region's cost responds to the sweep.
func F9Tracking(ctx context.Context) (*Result, error) {
	res := newResult("F9", "Cluster tracking across a problem-size sweep (cg, RowsScale 1..3)")
	scales := []float64{1, 1.5, 2, 3}
	snaps := make([]tracking.Snapshot, 0, len(scales))
	for _, s := range scales {
		app := simapp.NewCGSolver()
		app.RowsScale = s
		cfg := simapp.Config{Ranks: 2, Iterations: 120, Seed: 7, FreqGHz: 2}
		model, _, err := core.AnalyzeApp(ctx, app, cfg, core.DefaultOptions())
		if err != nil {
			return nil, err
		}
		snaps = append(snaps, tracking.Snapshot{Label: fmt.Sprintf("scale=%.1f", s), X: s, Model: model})
	}
	tracks, err := tracking.TrackClusters(snaps, tracking.DefaultMatchOptions())
	if err != nil {
		return nil, err
	}
	tb := report.NewTable("F9: tracked regions and their trends",
		"track", "region", "observed", "dur@1.0", "dur@3.0", "dur_rel_slope", "ipc_rel_slope", "coverage_slope")
	fullTracks := 0
	for _, tr := range tracks {
		if tr.Observed() < len(snaps) {
			continue
		}
		fullTracks++
		dur, _ := tr.DurationTrend(snaps)
		ipc, _ := tr.IPCTrend(snaps)
		cov, _ := tr.CoverageTrend(snaps)
		first, last := tr.Members[0], tr.Members[len(snaps)-1]
		tb.AddRow(tr.ID, tr.Region, tr.Observed(),
			first.Stat.MedianDur.String(), last.Stat.MedianDur.String(),
			dur.RelSlope, ipc.RelSlope, cov.Slope)
		if tr.Region == simapp.RegionCGSpMV {
			res.Metrics["spmv_dur_rel_slope"] = dur.RelSlope
			res.Metrics["spmv_coverage_slope"] = cov.Slope
		}
		if tr.Region == simapp.RegionCGDot {
			res.Metrics["dot_dur_rel_slope"] = dur.RelSlope
		}
	}
	res.Metrics["full_tracks"] = float64(fullTracks)
	res.Metrics["total_tracks"] = float64(len(tracks))
	res.Tables = append(res.Tables, tb)
	return res, nil
}

// cutPeriods slices the [start, end) stretch of a rank's timeline into
// period-sized synthetic bursts, interpolating boundary counters from the
// samples (no instrumentation events involved).
func cutPeriods(tr *trace.Trace, rank int, start, end sim.Time, period sim.Duration) []trace.Burst {
	rd := tr.Rank(rank)
	var bursts []trace.Burst
	for t := start; t+period <= end; t += period {
		b := trace.Burst{
			Rank:    int32(rank),
			Region:  -1,
			Start:   t,
			End:     t + period,
			Iter:    -1,
			Cluster: 0,
		}
		// Boundary counters from the nearest samples via interpolation.
		sc, ok1 := sampleCountersAt(rd, t)
		ec, ok2 := sampleCountersAt(rd, t+period)
		if !ok1 || !ok2 {
			continue
		}
		b.StartCtr = sc
		b.Delta = ec.Sub(sc)
		if ins, ok := b.Delta.Get(counters.Instructions); !ok || ins <= 0 {
			continue
		}
		attachWindowSamples(&b, rd)
		bursts = append(bursts, b)
	}
	return bursts
}

// sampleCountersAt linearly interpolates the cumulative counter state at
// time t from the surrounding samples.
func sampleCountersAt(rd *trace.RankData, t sim.Time) (counters.Set, bool) {
	samples := rd.Samples
	lo, hi := 0, len(samples)
	for lo < hi {
		mid := (lo + hi) / 2
		if samples[mid].Time < t {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo == 0 || lo >= len(samples) {
		return counters.Set{}, false
	}
	a, b := samples[lo-1], samples[lo]
	frac := float64(t-a.Time) / float64(b.Time-a.Time)
	out := counters.AllMissing()
	for id := counters.ID(0); id < counters.NumIDs; id++ {
		va, ok1 := a.Counters.Get(id)
		vb, ok2 := b.Counters.Get(id)
		if !ok1 || !ok2 {
			continue
		}
		out.Put(id, va+int64(frac*float64(vb-va)))
	}
	return out, true
}

// attachWindowSamples links the samples inside the synthetic burst.
func attachWindowSamples(b *trace.Burst, rd *trace.RankData) {
	first := -1
	for i := range rd.Samples {
		t := rd.Samples[i].Time
		if t < b.Start {
			continue
		}
		if t >= b.End {
			break
		}
		if first < 0 {
			first = i
		}
		b.NumSmp++
	}
	b.FirstSmp = first
}
