// Package core assembles the full phase-identification pipeline of the
// paper: trace acquisition (minimal instrumentation + coarse sampling) →
// computation-burst extraction → structure detection (clustering) → folding
// → piece-wise linear regression → phase characterization and source-code
// attribution. The package's Analyzer is the programmatic API; the module
// root re-exports it as the public surface.
package core

import (
	"context"
	"errors"
	"fmt"

	"phasefold/internal/align"
	"phasefold/internal/callstack"
	"phasefold/internal/cluster"
	"phasefold/internal/counters"
	"phasefold/internal/exec"
	"phasefold/internal/folding"
	"phasefold/internal/instr"
	"phasefold/internal/metrics"
	"phasefold/internal/obs"
	"phasefold/internal/par"
	"phasefold/internal/pwl"
	"phasefold/internal/sampler"
	"phasefold/internal/sim"
	"phasefold/internal/simapp"
	"phasefold/internal/trace"
)

// Options configures the whole pipeline. The zero value is not usable; start
// from DefaultOptions.
type Options struct {
	// SamplingPeriod is the coarse-grain sampling period.
	SamplingPeriod sim.Duration
	// SamplingJitter decorrelates the sampling grid from the loop period.
	SamplingJitter float64
	// SampleTrigger and SampleTriggerPeriod select PMU overflow sampling
	// instead of the timer: a sample fires every SampleTriggerPeriod
	// counts of SampleTrigger. Zero period keeps time-based sampling.
	SampleTrigger       counters.ID
	SampleTriggerPeriod int64
	// CaptureStacks enables call-stack capture (needed for attribution).
	CaptureStacks bool
	// Schedule is the counter multiplex rotation; nil means native (all
	// counters at once).
	Schedule *counters.Schedule
	// ProbeCost models per-probe instrumentation overhead.
	ProbeCost sim.Duration
	// MinBurstDuration drops bursts shorter than this before clustering.
	MinBurstDuration sim.Duration
	// Features are the burst features for structure detection.
	Features []cluster.Feature
	// UseRefinement selects Aggregative Cluster Refinement over plain
	// DBSCAN.
	UseRefinement bool
	// DBSCAN parameterizes plain DBSCAN (used when UseRefinement is off).
	DBSCAN cluster.DBSCANOptions
	// Refine parameterizes the refinement ladder.
	Refine cluster.RefineOptions
	// Folding controls burst pruning during folding.
	Folding folding.Options
	// PWL controls the piece-wise linear regression.
	PWL pwl.Options
	// MinFoldedPoints skips fitting clusters whose folded cloud is smaller
	// than this (not enough signal to regress).
	MinFoldedPoints int
	// Strict makes the pipeline fail fast: the trace must validate up
	// front, and any extraction, folding, or fitting failure aborts the
	// whole analysis with an error. The default (lenient) mode instead
	// repairs what it can, isolates per-rank and per-cluster failures, and
	// reports everything it absorbed as Model.Diagnostics and per-cluster
	// Quality grades.
	Strict bool
	// Exec composes the execution knobs shared with decoding and the
	// streaming session: Parallelism (worker cap of every parallel stage;
	// the result is identical at any setting) and Budget (records, ranks,
	// resident bytes, per-stage wall-clock; exceeded budgets degrade the
	// analysis in lenient mode and abort wrapping ErrBudget in strict
	// mode). The fields are promoted, so opt.Parallelism and opt.Budget
	// remain the supported access paths.
	exec.Exec
}

// DefaultOptions returns the configuration used throughout the experiments:
// 1 ms sampling — coarser than every phase in the bundled workloads — with
// stack capture on and the native counter group.
func DefaultOptions() Options {
	return Options{
		SamplingPeriod:   1 * sim.Millisecond,
		SamplingJitter:   0.3,
		CaptureStacks:    true,
		MinBurstDuration: 20 * sim.Microsecond,
		Features:         cluster.DefaultFeatures(),
		DBSCAN:           cluster.DBSCANOptions{Eps: 0.05, MinPts: 4},
		Refine:           cluster.DefaultRefineOptions(),
		Folding:          folding.DefaultOptions(),
		PWL:              pwl.DefaultOptions(),
		MinFoldedPoints:  64,
	}
}

// Phase is one detected performance phase inside a cluster's synthetic
// burst: an interval of normalized time with homogeneous rates, attributed
// to a source construct.
type Phase struct {
	// X0, X1 bound the phase in normalized time.
	X0, X1 float64
	// Duration is the phase's share of the representative burst duration.
	Duration sim.Duration
	// Rates are the reconstructed absolute counter rates (counts/second);
	// RatesOK marks counters that were captured and fit.
	Rates   [counters.NumIDs]float64
	RatesOK [counters.NumIDs]bool
	// Metrics are the derived per-phase metrics; MetricsOK marks the
	// computable ones.
	Metrics   [counters.NumMetrics]float64
	MetricsOK [counters.NumMetrics]bool
	// Attribution is the dominant source construct (valid when Attributed).
	Attribution folding.Attribution
	Attributed  bool
	// Source is the human-readable attribution, e.g. "cg.spmv (cg/spmv.c:122)".
	Source string
	// Profile is the folded per-line sample histogram of the phase
	// (descending by weight, truncated to the top entries) — the zoomed-in
	// view behind the Source headline.
	Profile []folding.LineProfile
}

// MIPS returns the phase's reconstructed MIPS (0 when unavailable).
func (p *Phase) MIPS() float64 {
	if !p.MetricsOK[counters.MIPS] {
		return 0
	}
	return p.Metrics[counters.MIPS]
}

// ClusterAnalysis is the full analysis of one detected computation region.
type ClusterAnalysis struct {
	// Label is the cluster id; Stat the clustering summary.
	Label int
	Stat  cluster.Stat
	// Folded is the folded cloud the fits were made on.
	Folded *folding.Folded
	// Fit is the primary (Instructions) piece-wise linear model; nil when
	// the cloud was too sparse to fit.
	Fit *pwl.Model
	// Phases are the detected phases, in time order.
	Phases []Phase
	// Quality grades how trustworthy this cluster's analysis is;
	// QualityReason explains any grade below QualityOK.
	Quality       Quality
	QualityReason string
}

// Model is the result of analyzing one trace.
type Model struct {
	// App names the analyzed application.
	App string
	// NumBursts is the number of computation bursts extracted; NumClusters
	// counts the detected structure; NoiseBursts the unclustered rest.
	NumBursts   int
	NumClusters int
	NoiseBursts int
	// TotalComputation is the summed duration of all bursts.
	TotalComputation sim.Duration
	// SPMDScore is the sequence-alignment structure-quality score in
	// [0,1] (1 = every rank runs the identical cluster sequence).
	SPMDScore float64
	// Clusters holds per-cluster analyses, ordered by descending total
	// time (the analyst's triage order).
	Clusters []*ClusterAnalysis
	// Bursts are the labelled bursts (for downstream tooling).
	Bursts []trace.Burst
	// Diagnostics records every fault the lenient pipeline absorbed:
	// repairs made to the input, ranks dropped, health-check warnings,
	// clusters that could not be folded or fit. Empty for a pristine trace.
	Diagnostics []Diagnostic
}

// Degraded reports whether the analysis absorbed any faults (diagnostics
// were recorded or any cluster graded below QualityOK).
func (m *Model) Degraded() bool {
	if len(m.Diagnostics) > 0 {
		return true
	}
	for _, c := range m.Clusters {
		if c.Quality != QualityOK {
			return true
		}
	}
	return false
}

// Cluster returns the analysis of the given label, or nil.
func (m *Model) Cluster(label int) *ClusterAnalysis {
	for _, c := range m.Clusters {
		if c.Label == label {
			return c
		}
	}
	return nil
}

// ClusterByRegion returns the dominant-region cluster analysis for a region
// id, or nil. When several clusters share the region, the one covering the
// most time wins (they are ordered that way).
func (m *Model) ClusterByRegion(region int64) *ClusterAnalysis {
	for _, c := range m.Clusters {
		if c.Stat.Region == region {
			return c
		}
	}
	return nil
}

// RunResult bundles everything a simulated acquisition produces.
type RunResult struct {
	Trace *trace.Trace
	Truth *simapp.Truth
	Stats instr.Stats
}

// RunApp executes a simulated application under the acquisition
// configuration in opt and returns the trace plus ground truth.
func RunApp(app simapp.App, cfg simapp.Config, opt Options) (*RunResult, error) {
	tr := trace.New(app.Name(), cfg.Ranks, nil, nil)
	tracer := instr.New(tr, instr.Options{Schedule: opt.Schedule, ProbeCost: opt.ProbeCost})
	runner := &simapp.Runner{}
	if opt.SamplingPeriod > 0 || opt.SampleTriggerPeriod > 0 {
		runner.Attach = func(m *simapp.Machine) {
			sampler.Attach(tr, m, sampler.Options{
				Period:        opt.SamplingPeriod,
				JitterFrac:    opt.SamplingJitter,
				CaptureStacks: opt.CaptureStacks,
				Seed:          cfg.Seed ^ 0xABCD,
				Trigger:       opt.SampleTrigger,
				TriggerPeriod: opt.SampleTriggerPeriod,
			})
		}
	}
	truth, err := runner.Run(app, cfg, tr.Symbols, tracer)
	if err != nil {
		return nil, fmt.Errorf("core: running %s: %w", app.Name(), err)
	}
	return &RunResult{Trace: tr, Truth: truth, Stats: tracer.Stats()}, nil
}

// Analyze runs the analysis pipeline over an acquired trace, under ctx and
// the execution guards of opt.Budget.
//
// In the default (lenient) mode it is a degraded-mode analyzer: a trace that
// fails validation is sanitized on a private copy, ranks that cannot be
// repaired are dropped, health checks look for damage signatures that leave
// the container invariants intact (lost samples, dead or truncated ranks,
// cross-rank clock skew), and per-rank extraction plus per-cluster folding
// and fitting failures are isolated instead of fatal. Everything absorbed is
// reported in Model.Diagnostics and as per-cluster Quality grades; the input
// trace is never modified. With opt.Strict set, any of those conditions
// aborts with an error instead.
//
// Cancellation is polled inside every expensive loop (extraction, DBSCAN,
// refinement ladder, DP fitting) and returns the context's error promptly;
// it is never absorbed as degradation. Per-rank extraction and per-cluster
// folding/fitting panics are recovered: lenient mode isolates them as
// Diagnostics, strict mode returns an error wrapping ErrPanic. Parallel
// stages honor opt.Parallelism; the model is identical at any worker count.
func Analyze(ctx context.Context, tr *trace.Trace, opt Options) (*Model, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	ctx, aspan := obs.StartSpan(ctx, spanAnalyze)
	m, err := analyze(ctx, tr, opt)
	return m, endAnalysis(ctx, aspan, m, err)
}

// endAnalysis is the epilogue Analyze and Ingest.Done share: it grades
// the run's outcome onto the analyze span, counts it, logs the finished
// model, and passes err through.
func endAnalysis(ctx context.Context, aspan *obs.Span, m *Model, err error) error {
	outcome := "ok"
	switch {
	case err != nil:
		outcome = "error"
	case m.Degraded():
		outcome = "degraded"
	}
	aspan.SetAttr("outcome", outcome)
	aspan.End()
	obs.Metrics(ctx).Counter(obs.MetricAnalyses, "Analyses run, by outcome.",
		obs.Label{K: "outcome", V: outcome}).Inc()
	if m != nil {
		obs.Logger(ctx).Info("analysis complete",
			"app", m.App, "outcome", outcome,
			"bursts", m.NumBursts, "clusters", m.NumClusters,
			"diagnostics", len(m.Diagnostics))
	}
	return err
}

// analyze is the Analyze body, under the run's "analyze" span: the trace
// through the front half (Ingest), then the burst-level tail.
func analyze(ctx context.Context, tr *trace.Trace, opt Options) (*Model, error) {
	in := NewIngest(tr.AppName, tr.NumRanks(), tr.Symbols, tr.Stacks, opt)
	if err := in.FeedTrace(ctx, tr); err != nil {
		return nil, err
	}
	return in.model(ctx)
}

// tailInput is everything the burst-level pipeline tail needs; nothing in it
// requires a resident trace. Ingest fills it as it settles: the bursts of
// the kept ranks, and their folded observations projected out of the
// resident records or replayed from the clouds the chunked path built.
type tailInput struct {
	app     string
	nRanks  int
	syms    *callstack.SymbolTable
	stacks  *callstack.Interner
	bursts  []trace.Burst
	project folding.Projector
}

// analyzeTail is the shared back half of the pipeline, from burst sorting
// through the finished model.
func analyzeTail(ctx context.Context, in tailInput, opt Options, ds *diagSink) (*Model, error) {
	bursts := in.bursts
	if len(bursts) == 0 {
		// Total data loss is not absorbable even in lenient mode; tag the
		// failure so callers can match it with errors.Is.
		return nil, fmt.Errorf("core: trace contains no computation bursts (%w)", trace.ErrInvalid)
	}
	trace.SortBursts(bursts)
	obs.Metrics(ctx).Counter(obs.MetricBurstsExtracted,
		"Computation bursts extracted from traces.").Add(int64(len(bursts)))

	cctx, cspan, endCluster := startStage(ctx, spanCluster)
	labels, err := clusterBursts(cctx, bursts, opt, ds)
	endCluster()
	if err != nil {
		return nil, err
	}
	model := &Model{
		App:              in.app,
		NumBursts:        len(bursts),
		NumClusters:      cluster.NumClusters(labels),
		TotalComputation: trace.TotalComputation(bursts),
		Bursts:           bursts,
	}
	_, model.NoiseBursts = cluster.Sizes(labels)
	cspan.SetAttr("clusters", int64(model.NumClusters))
	cspan.SetAttr("noise_bursts", int64(model.NoiseBursts))
	obs.Metrics(ctx).Counter(obs.MetricClustersFound, "Clusters detected.").Add(int64(model.NumClusters))
	obs.Metrics(ctx).Counter(obs.MetricNoiseBursts, "Bursts left unclustered as noise.").Add(int64(model.NoiseBursts))

	sctx, sspan, endSPMD := startStage(ctx, spanSPMD)
	model.SPMDScore, err = spmdScore(sctx, sspan, in.nRanks, bursts)
	endSPMD()
	if err != nil {
		return nil, err
	}

	stats := cluster.Stats(bursts)
	fdctx, fdspan, endFold := startStage(ctx, spanFold)
	foldByLabel, err := foldAll(fdctx, in.project, bursts, stats, opt, ds)
	fdspan.SetAttr("clusters_folded", int64(len(foldByLabel)))
	var foldedPoints int64
	for _, f := range foldByLabel {
		foldedPoints += int64(f.TotalPoints())
	}
	fdspan.SetAttr("folded_points", foldedPoints)
	recordStageThroughput(ctx, fdspan, spanFold, foldedPoints)
	endFold()
	if err != nil {
		return nil, err
	}
	// Per-cluster fitting is independent work (each cluster has its own
	// folded cloud); fit them concurrently on the opt.Parallelism pool.
	// The result order and content stay deterministic: slots are
	// pre-assigned by cluster rank, the fits themselves are pure, and
	// errors resolve to diagnostics only after the pool joins, in slot
	// order — never in completion order.
	ftctx, fitSpan, endFit := startStage(ctx, spanFit)
	defer endFit()
	fctx, cancelFit := stageContext(ftctx, opt.Budget)
	defer cancelFit()
	model.Clusters = make([]*ClusterAnalysis, len(stats))
	for i, st := range stats {
		model.Clusters[i] = &ClusterAnalysis{Label: st.Label, Stat: st, Folded: foldByLabel[st.Label]}
	}
	fitErrs := make([]error, len(stats))
	par.ForEach(par.N(opt.Parallelism), len(stats), func(_, i int) {
		ca := model.Clusters[i]
		if ca.Folded == nil {
			return
		}
		// Each cluster's fit gets its own child span; the DP inside pwl
		// attaches its cell count to whatever span its context carries.
		clctx, clspan := obs.StartSpan(fctx, fmt.Sprintf("fit_cluster_%d", ca.Label))
		clspan.SetAttr("cluster", int64(ca.Label))
		defer clspan.End()
		fitErrs[i] = capture(fmt.Sprintf("fit cluster %d", ca.Label), func() error {
			if testHookFit != nil {
				testHookFit(ca.Label)
			}
			return fitCluster(clctx, in.syms, in.stacks, ca, opt)
		})
		fitSpan.AddInt("clusters_fit", 1)
	})
	if err := ctx.Err(); err != nil {
		// The caller's context ended; cancellation is never absorbed as
		// degradation, not even in lenient mode.
		return nil, err
	}
	for i, err := range fitErrs {
		if err == nil {
			continue
		}
		ca := model.Clusters[i]
		switch {
		case opt.Strict:
			if stageBudgetExceeded(ctx, err) {
				return nil, fmt.Errorf("%w: cluster %d fit exceeded stage timeout", ErrBudget, ca.Label)
			}
			return nil, fmt.Errorf("core: cluster %d: %w", ca.Label, err)
		case stageBudgetExceeded(ctx, err):
			ca.Quality = QualityRejected
			ca.QualityReason = "budget_exceeded:fitting"
			ds.add("budget", KindBudgetExceeded, SeverityError, -1, ca.Label, "budget_exceeded:fitting: %v", err)
		default:
			// Lenient: the cluster is rejected, the rest of the model
			// survives. Panics arrive here wrapped in ErrPanic.
			ca.Quality = QualityRejected
			ca.QualityReason = fmt.Sprintf("fit failed: %v", err)
			ds.add("fit", KindFitFailed, SeverityError, -1, ca.Label, "piece-wise linear fit failed: %v", err)
		}
	}
	gradeClusters(model, opt, ds)
	model.Diagnostics = ds.diags
	return model, nil
}

// workerSpans opens one child span per pool worker under ctx's current
// span — per worker, not per item, so span volume stays bounded however
// large the trace is. Each worker owns its span exclusively; Span methods
// are also mutex-protected, so concurrent children under one parent are
// safe. Callers must End every returned span after the pool joins. With
// telemetry absent from ctx the spans are nil and every operation on them
// is a no-op.
func workerSpans(ctx context.Context, prefix string, workers int) ([]context.Context, []*obs.Span) {
	if workers < 1 {
		workers = 1
	}
	ctxs := make([]context.Context, workers)
	spans := make([]*obs.Span, workers)
	for w := range ctxs {
		ctxs[w], spans[w] = obs.StartSpan(ctx, fmt.Sprintf("%s_%d", prefix, w))
	}
	return ctxs, spans
}

// clusterFold is one cluster's folding outcome slot. stopped marks clusters
// the stage guard prevented from starting (stage timeout or cancellation);
// the merge scan turns the first stopped cluster into the same error or
// diagnostic the serial loop would have produced at that point.
type clusterFold struct {
	folded  *folding.Folded
	err     error
	stopped bool
}

// foldAll folds every cluster under the folding stage guard, fanning
// clusters out over opt.Parallelism workers. Each cluster's fold lands in
// its own slot and the merge scan walks slots in stats order, so the result
// is identical to a serial fold. Strict mode fails on the first
// (lowest-index) error; lenient mode records a diagnostic for each cluster
// that cannot be folded (it will be graded QualityRejected; the others
// proceed). A stage timeout keeps the longest clean prefix of folded
// clusters; unfolded clusters grade Rejected downstream. The first cluster
// is always folded, even under an already-expired budget, mirroring
// extraction's at-least-one-rank rule (see Ingest).
func foldAll(ctx context.Context, project folding.Projector, bursts []trace.Burst, stats []cluster.Stat, opt Options, ds *diagSink) (map[int]*folding.Folded, error) {
	sctx, cancel := stageContext(ctx, opt.Budget)
	defer cancel()
	byLabel := make(map[int]*folding.Folded, len(stats))
	n := len(stats)
	workers := par.N(opt.Parallelism)
	if workers > n {
		workers = n
	}
	_, wspans := workerSpans(ctx, "fold_worker", workers)
	perCluster := make([]clusterFold, n)
	par.ForEach(workers, n, func(worker, i int) {
		if err := sctx.Err(); err != nil && (i > 0 || opt.Strict) {
			perCluster[i].stopped, perCluster[i].err = true, err
			return
		}
		st := stats[i]
		perCluster[i].err = capture(fmt.Sprintf("fold cluster %d", st.Label), func() error {
			var e error
			perCluster[i].folded, e = folding.FoldWith(project, bursts, st.Label, opt.Folding)
			return e
		})
		wspans[worker].AddInt("clusters", 1)
	})
	for _, s := range wspans {
		s.End()
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	for i := 0; i < n; i++ {
		if perCluster[i].stopped {
			if !stageBudgetExceeded(ctx, perCluster[i].err) {
				return nil, perCluster[i].err
			}
			if opt.Strict {
				return nil, fmt.Errorf("%w: folding exceeded stage timeout", ErrBudget)
			}
			ds.add("budget", KindBudgetExceeded, SeverityWarn, -1, -1,
				"budget_exceeded:folding: stage timeout after %d of %d clusters", i, n)
			break
		}
		if err := perCluster[i].err; err != nil {
			if opt.Strict {
				return nil, fmt.Errorf("core: folding: %w", err)
			}
			ds.add("fold", KindFoldFailed, SeverityError, -1, stats[i].Label, "folding failed: %v", err)
			continue
		}
		byLabel[stats[i].Label] = perCluster[i].folded
	}
	if opt.Strict {
		if err := sctx.Err(); err != nil {
			if stageBudgetExceeded(ctx, err) {
				return nil, fmt.Errorf("%w: folding exceeded stage timeout", ErrBudget)
			}
			return nil, err
		}
	}
	return byLabel, nil
}

// gradeClusters assigns the final Quality grade to every cluster that has not
// already been rejected by a stage failure.
func gradeClusters(m *Model, opt Options, ds *diagSink) {
	for _, ca := range m.Clusters {
		if ca.Quality != QualityOK || ca.QualityReason != "" {
			continue // already graded by a stage failure
		}
		switch {
		case ca.Folded == nil:
			ca.Quality = QualityRejected
			ca.QualityReason = "no folded cloud"
		case ca.Fit == nil:
			ca.Quality = QualityDegraded
			ca.QualityReason = fmt.Sprintf("folded cloud too sparse to fit (%d points, need %d)",
				len(ca.Folded.Points[counters.Instructions]), opt.MinFoldedPoints)
			if !opt.Strict {
				ds.add("fit", KindSparseCloud, SeverityWarn, -1, ca.Label, "%s; phase model skipped", ca.QualityReason)
			}
		default:
			ca.Quality = QualityOK
		}
	}
}

// AnalyzeApp is the one-call convenience: run the app and analyze the
// trace. Only the analysis half is under ctx (the simulated acquisition
// itself is not interruptible; it is bounded by the workload's configured
// size).
func AnalyzeApp(ctx context.Context, app simapp.App, cfg simapp.Config, opt Options) (*Model, *RunResult, error) {
	run, err := RunApp(app, cfg, opt)
	if err != nil {
		return nil, nil, err
	}
	m, err := Analyze(ctx, run.Trace, opt)
	if err != nil {
		return nil, nil, err
	}
	return m, run, nil
}

// clusterBursts runs structure detection under the stage guard. The whole
// stage sits inside one panic isolation boundary: in lenient mode a panic or
// a stage timeout leaves every burst unlabelled (the model carries no
// clusters but the analysis still returns, with a diagnostic); genuine
// parameter errors stay fatal, and the caller's cancellation propagates.
func clusterBursts(ctx context.Context, bursts []trace.Burst, opt Options, ds *diagSink) ([]int, error) {
	sctx, cancel := stageContext(ctx, opt.Budget)
	defer cancel()
	var labels []int
	err := capture("structure detection", func() error {
		var e error
		labels, e = runStructure(sctx, bursts, opt)
		return e
	})
	if err == nil {
		return labels, nil
	}
	if ctx.Err() != nil {
		return nil, ctx.Err()
	}
	timedOut := stageBudgetExceeded(ctx, err)
	if opt.Strict {
		if timedOut {
			return nil, fmt.Errorf("%w: structure detection exceeded stage timeout", ErrBudget)
		}
		return nil, fmt.Errorf("core: structure detection: %w", err)
	}
	if !timedOut && !errors.Is(err, ErrPanic) {
		return nil, fmt.Errorf("core: structure detection: %w", err)
	}
	if timedOut {
		ds.add("budget", KindBudgetExceeded, SeverityError, -1, -1, "budget_exceeded:structure: %v; bursts left unclustered", err)
	} else {
		ds.add("cluster", KindStructureFailed, SeverityError, -1, -1, "structure detection failed, bursts left unclustered: %v", err)
	}
	labels = make([]int, len(bursts))
	for i := range labels {
		labels[i] = cluster.Noise
	}
	cluster.ApplyLabels(bursts, labels)
	return labels, nil
}

func runStructure(ctx context.Context, bursts []trace.Burst, opt Options) ([]int, error) {
	if !opt.UseRefinement {
		return cluster.ClusterBurstsContext(ctx, bursts, opt.Features, opt.DBSCAN)
	}
	pts, valid := cluster.Extract(bursts, opt.Features)
	cluster.Normalize(pts, valid, cluster.MinSpans(opt.Features))
	idx := make([]int, 0, len(bursts))
	sub := make([]cluster.Point, 0, len(bursts))
	for i := range pts {
		if valid[i] {
			idx = append(idx, i)
			sub = append(sub, pts[i])
		}
	}
	subLabels, err := cluster.RefineContext(ctx, sub, opt.Refine)
	if err != nil {
		return nil, err
	}
	labels := make([]int, len(bursts))
	for i := range labels {
		labels[i] = cluster.Noise
	}
	for k, i := range idx {
		labels[i] = subLabels[k]
	}
	cluster.ApplyLabels(bursts, labels)
	return labels, nil
}

// spmdScore aligns the per-rank cluster-label sequences and scores their
// agreement, stamping the aligned symbol count on span. Only the caller's
// ctx ending is an error; a failed alignment scores 0.
func spmdScore(ctx context.Context, span *obs.Span, nRanks int, bursts []trace.Burst) (float64, error) {
	if nRanks < 2 {
		return 1, nil
	}
	seqs := make([][]int, nRanks)
	var symbols int64
	for i := range bursts {
		b := &bursts[i]
		if b.Cluster >= 0 {
			seqs[b.Rank] = append(seqs[b.Rank], b.Cluster)
			symbols++
		}
	}
	span.SetAttr("symbols", symbols)
	if symbols == 0 {
		// No rank carries a clustered burst: the alignment would be
		// empty and score 0, after work quadratic in the rank count.
		return 0, ctx.Err()
	}
	msa, err := align.ProgressiveContext(ctx, seqs, align.DefaultScoring())
	if err != nil {
		return 0, ctx.Err()
	}
	return msa.SPMDScore(), nil
}

// fitCluster fits the PWL models and assembles the phase list of one
// cluster. The DP inside pwl polls ctx; the secondary-counter refits check
// it between counters. It needs only the trace's resolution tables, not its
// records — the folded cloud carries everything else.
func fitCluster(ctx context.Context, syms *callstack.SymbolTable, stacks *callstack.Interner, ca *ClusterAnalysis, opt Options) error {
	f := ca.Folded
	if f.NumPoints(counters.Instructions) < opt.MinFoldedPoints {
		return nil // too sparse: keep cluster stats, skip phase model
	}
	// One x/y pair, sized to the largest cloud, serves the primary fit and
	// every refit: a pwl.Model keeps no reference to its inputs.
	n := 0
	for id := range f.Points {
		n = max(n, len(f.Points[id]))
	}
	buf := make([]float64, 2*n)
	xbuf, ybuf := buf[:n], buf[n:]
	xs, ys := pointsOf(f, counters.Instructions, xbuf, ybuf)
	fit, err := pwl.FitContext(ctx, xs, ys, opt.PWL)
	if err != nil {
		return fmt.Errorf("fitting instructions: %w", err)
	}
	ca.Fit = fit

	// Re-fit every other captured counter at the primary breakpoints.
	fits := make(map[counters.ID]*pwl.Model, counters.NumIDs)
	fits[counters.Instructions] = fit
	for id := counters.ID(0); id < counters.NumIDs; id++ {
		if id == counters.Instructions {
			continue
		}
		if err := ctx.Err(); err != nil {
			return err
		}
		cx, cy := pointsOf(f, id, xbuf, ybuf)
		if len(cx) < opt.MinFoldedPoints/2 {
			continue
		}
		cm, err := pwl.FitWithBreakpoints(cx, cy, fit.Breakpoints, opt.PWL)
		if err != nil {
			continue // sparse or degenerate counter cloud: skip it
		}
		fits[id] = cm
	}

	attrib := folding.NewAttributor(stacks)
	for _, seg := range fit.Segments() {
		ph := Phase{X0: seg.X0, X1: seg.X1}
		ph.Duration = sim.Duration(float64(f.RepDuration) * (seg.X1 - seg.X0))
		mid := (seg.X0 + seg.X1) / 2
		for id, cm := range fits {
			scale, ok := f.RateScale(id)
			if !ok {
				continue
			}
			ph.Rates[id] = scale * cm.SlopeAt(mid)
			ph.RatesOK[id] = true
		}
		ph.Metrics, ph.MetricsOK = metrics.MetricsFromRates(ph.Rates, ph.RatesOK)
		if attr, prof, ok := attrib.Interval(f, seg.X0, seg.X1); ok {
			ph.Attribution = attr
			ph.Attributed = true
			ph.Source = syms.FormatFrame(callstack.Frame{Routine: attr.Routine, Line: attr.Line})
			ph.Profile = prof
			if len(ph.Profile) > 5 {
				ph.Profile = ph.Profile[:5]
			}
		}
		ca.Phases = append(ca.Phases, ph)
	}
	return nil
}

// pointsOf splits counter id's folded cloud into the leading elements of
// xbuf and ybuf, which must be at least as long as the cloud.
func pointsOf(f *folding.Folded, id counters.ID, xbuf, ybuf []float64) (xs, ys []float64) {
	pts := f.Points[id]
	xs, ys = xbuf[:len(pts)], ybuf[:len(pts)]
	for i, p := range pts {
		xs[i] = p.X
		ys[i] = p.Y
	}
	return xs, ys
}
