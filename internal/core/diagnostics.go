package core

import (
	"context"
	"fmt"
	"log/slog"

	"phasefold/internal/obs"
	"phasefold/internal/sim"
)

// Severity grades a Diagnostic.
type Severity uint8

// The severities: Info notes something worth knowing, Warn marks data that
// was repaired or looks suspicious, Error marks data that had to be dropped.
const (
	SeverityInfo Severity = iota
	SeverityWarn
	SeverityError
)

// String returns the lowercase severity name.
func (s Severity) String() string {
	switch s {
	case SeverityInfo:
		return "info"
	case SeverityWarn:
		return "warn"
	case SeverityError:
		return "error"
	}
	return fmt.Sprintf("severity(%d)", uint8(s))
}

// Diagnostic kinds: the machine-matchable classification of what the
// degraded-mode analysis absorbed. Historically this lived inside the
// free-form message text in inconsistent kind:detail spellings; the Kind
// field makes it a stable contract while String() keeps the old rendering.
const (
	KindRepair          = "repair"           // sanitize fixed damaged records
	KindRankDropped     = "rank_dropped"     // a rank stayed invalid after repair
	KindRankEmpty       = "rank_empty"       // a rank carries no records at all
	KindRankTruncated   = "rank_truncated"   // a rank's stream ends early
	KindSampleLoss      = "sample_loss"      // the sampling stream looks lossy
	KindClockSkew       = "clock_skew"       // per-rank clocks disagree
	KindBudgetExceeded  = "budget_exceeded"  // a resource budget trimmed the run
	KindExtractFailed   = "extract_failed"   // per-rank burst extraction failed
	KindStructureFailed = "structure_failed" // clustering failed or timed out
	KindFoldFailed      = "fold_failed"      // per-cluster folding failed
	KindFitFailed       = "fit_failed"       // per-cluster PWL fit failed
	KindSparseCloud     = "sparse_cloud"     // folded cloud too sparse to fit
)

// Diag is the structured core of a Diagnostic: what happened (Kind), where
// in the pipeline (Stage), and the human-readable detail. It is the shape
// emitted as a structured event and the one downstream tools should match
// on instead of parsing message strings.
type Diag struct {
	Kind   string
	Stage  string
	Detail string
}

// String renders the structured diagnostic as kind/stage: detail.
func (d Diag) String() string {
	if d.Kind == "" {
		return fmt.Sprintf("%s: %s", d.Stage, d.Detail)
	}
	return fmt.Sprintf("%s/%s: %s", d.Kind, d.Stage, d.Detail)
}

// Diagnostic records one fault the degraded-mode analysis absorbed instead
// of failing: damaged input it repaired, a rank it dropped, a cluster it
// could not fit. The zero Rank/Cluster sentinels are -1 ("not applicable").
type Diagnostic struct {
	// Stage names the pipeline stage that raised the diagnostic:
	// "sanitize", "validate", "health", "budget", "extract", "cluster",
	// "fold", or "fit".
	Stage string
	// Kind is the machine-matchable classification (see the Kind*
	// constants); Message carries the human-readable detail.
	Kind string
	// Severity grades the impact.
	Severity Severity
	// Rank is the affected process, or -1.
	Rank int
	// Cluster is the affected cluster label, or -1.
	Cluster int
	// Message describes the fault and the action taken.
	Message string
}

// String renders the diagnostic exactly as it always has (the Kind is a
// parallel structured channel, not a format change).
func (d Diagnostic) String() string {
	where := ""
	if d.Rank >= 0 {
		where = fmt.Sprintf(" rank %d:", d.Rank)
	}
	if d.Cluster >= 0 {
		where += fmt.Sprintf(" cluster %d:", d.Cluster)
	}
	return fmt.Sprintf("[%s] %s:%s %s", d.Severity, d.Stage, where, d.Message)
}

// Diag returns the structured form of the diagnostic.
func (d Diagnostic) Diag() Diag {
	return Diag{Kind: d.Kind, Stage: d.Stage, Detail: d.Message}
}

// Quality grades how trustworthy one cluster's analysis is after degraded-
// mode processing.
type Quality uint8

// The cluster quality grades.
const (
	// QualityOK marks a cluster whose folded cloud was dense enough and
	// whose piece-wise linear fit converged — fully trustworthy.
	QualityOK Quality = iota
	// QualityDegraded marks a cluster analyzed with reduced fidelity: the
	// folded cloud was too sparse to fit a phase model, so only the
	// clustering statistics are reliable.
	QualityDegraded
	// QualityRejected marks a cluster whose analysis failed outright; its
	// numbers must not be trusted.
	QualityRejected
)

// String returns the quality grade name.
func (q Quality) String() string {
	switch q {
	case QualityOK:
		return "ok"
	case QualityDegraded:
		return "degraded"
	case QualityRejected:
		return "rejected"
	}
	return fmt.Sprintf("quality(%d)", uint8(q))
}

// diagSink accumulates diagnostics; Analyze owns one per run and threads it
// through the stages (behind a mutex where stages run concurrently). Every
// diagnostic is simultaneously emitted as a structured event on the run's
// logger and counted in the run's metrics registry, both no-ops when the
// caller attached no telemetry.
type diagSink struct {
	diags []Diagnostic
	log   *slog.Logger
	reg   *obs.Registry
}

func newDiagSink(ctx context.Context) *diagSink {
	return &diagSink{log: obs.Logger(ctx), reg: obs.Metrics(ctx)}
}

var severityLevels = [...]slog.Level{
	SeverityInfo:  slog.LevelInfo,
	SeverityWarn:  slog.LevelWarn,
	SeverityError: slog.LevelError,
}

func (ds *diagSink) add(stage, kind string, sev Severity, rank, cluster int, format string, args ...any) {
	ds.record(Diagnostic{
		Stage: stage, Kind: kind, Severity: sev, Rank: rank, Cluster: cluster,
		Message: fmt.Sprintf(format, args...),
	})
}

func (ds *diagSink) record(d Diagnostic) {
	ds.diags = append(ds.diags, d)
	if ds.log != nil {
		ds.log.LogAttrs(context.Background(), severityLevels[d.Severity], "diagnostic",
			slog.String("kind", d.Kind), slog.String("stage", d.Stage),
			slog.Int("rank", d.Rank), slog.Int("cluster", d.Cluster),
			slog.String("detail", d.Message))
	}
	ds.reg.Counter(obs.MetricDiagnostics,
		"Degraded-mode diagnostics recorded, by kind.",
		obs.Label{K: "kind", V: d.Kind}).Inc()
}

// Health-check thresholds. They are deliberately conservative: a pristine
// trace from the bundled workloads must never trip them, while the fault
// rates the robustness experiment injects (≥ a few percent) reliably do.
const (
	healthMinSamples     = 20   // below this, loss estimation is noise
	healthLossFrac       = 0.04 // flag when >4% of expected samples are missing
	healthLossMin        = 4    // ... and at least this many are missing
	healthEarlyEndFrac   = 0.75 // flag ranks ending before 75% of the trace
	healthSkewFloor      = 100 * sim.Microsecond
	healthSkewOfIterFrac = 0.25 // ... or >25% of an iteration, whichever is larger
)
