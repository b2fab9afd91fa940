// Package phasefold identifies code phases in (simulated) parallel
// applications using piece-wise linear regressions over folded coarse-grain
// samples, reproducing Servat et al., "Identifying Code Phases Using
// Piece-Wise Linear Regressions" (IPDPS 2014).
//
// The pipeline combines three ingredients: minimal instrumentation (probes
// only at region/communication boundaries), coarse-grain sampling (counters
// + call stacks at millisecond periods), and folding (projecting all samples
// of a repeated region onto one synthetic instance). A piece-wise linear
// regression of the folded cumulative counters recovers the region's
// internal phases — boundaries and per-phase rates — at a granularity far
// below the sampling period, and folded call stacks attribute each phase to
// its source construct.
//
// Quick start:
//
//	app, _ := phasefold.NewApp("multiphase")
//	cfg := phasefold.DefaultConfig()
//	model, _, err := phasefold.AnalyzeApp(context.Background(), app, cfg)
//	// model.Clusters[0].Phases now lists the detected phases with their
//	// MIPS/IPC/miss-rate profile and source attribution.
//
// For data that arrives over time — a socket, a growing file, a live
// acquisition — Stream opens an incremental session over the same engine:
//
//	sess, _ := phasefold.Stream(ctx)
//	go func() { _ = sess.Consume(conn) }() // analyze while bytes arrive
//	snap := sess.Snapshot()                // provisional phases, any time
//	model, err := sess.Done()              // byte-identical to batch Analyze
//
// Every entry point is context-first and takes functional options
// (WithStrict, WithSalvage, WithBudget, WithParallelism, WithWindow,
// WithSnapshotEvery, WithTelemetry, WithLogger). The pre-redesign
// deprecated wrapper names (AnalyzeContext, DecodeTrace, ...) have been
// removed; their functionality lives in the canonical context-first names.
//
// The package is a facade over the internal packages; everything needed to
// acquire traces from the bundled simulated applications, analyze them, and
// render reports is re-exported here.
package phasefold

import (
	"context"
	"fmt"
	"io"
	"log/slog"
	"sync"

	"phasefold/internal/callstack"
	"phasefold/internal/core"
	"phasefold/internal/counters"
	"phasefold/internal/export"
	"phasefold/internal/faults"
	"phasefold/internal/obs"
	"phasefold/internal/query"
	"phasefold/internal/service"
	"phasefold/internal/sim"
	"phasefold/internal/simapp"
	"phasefold/internal/stream"
	"phasefold/internal/trace"
)

// Re-exported pipeline types.
type (
	// Options configures the acquisition and analysis pipeline.
	Options = core.Options
	// Model is a complete trace analysis.
	Model = core.Model
	// ClusterAnalysis is the per-cluster analysis within a Model.
	ClusterAnalysis = core.ClusterAnalysis
	// Phase is one detected performance phase.
	Phase = core.Phase
	// RunResult bundles a simulated acquisition's outputs.
	RunResult = core.RunResult

	// App is a simulated SPMD application.
	App = simapp.App
	// Config parameterizes a simulated execution.
	Config = simapp.Config
	// Truth is the simulator's ground-truth phase structure.
	Truth = simapp.Truth

	// Trace is the performance-data container.
	Trace = trace.Trace
	// EventType discriminates instrumentation events in a Trace.
	EventType = trace.EventType

	// CounterID identifies a hardware counter.
	CounterID = counters.ID
	// Metric identifies a derived performance metric.
	Metric = counters.Metric

	// Time is virtual time in nanoseconds.
	Time = sim.Time
	// Duration is a span of virtual time in nanoseconds.
	Duration = sim.Duration
)

// Virtual time units.
const (
	Microsecond = sim.Microsecond
	Millisecond = sim.Millisecond
	Second      = sim.Second
)

// Derived per-phase metrics (index Phase.Metrics with these).
const (
	MIPS          = counters.MIPS
	IPC           = counters.IPC
	GHz           = counters.GHz
	L1MissRatio   = counters.L1MissRatio
	L2MissRatio   = counters.L2MissRatio
	L3MissRatio   = counters.L3MissRatio
	BranchMissPct = counters.BranchMissPct
	FPRatio       = counters.FPRatio
	MemRatio      = counters.MemRatio
	PowerW        = counters.PowerW
	NJPerInstr    = counters.NJPerInstr
)

// Instrumentation event types.
const (
	RegionEnter = trace.RegionEnter
	RegionExit  = trace.RegionExit
	CommEnter   = trace.CommEnter
	CommExit    = trace.CommExit
	IterBegin   = trace.IterBegin
	IterEnd     = trace.IterEnd
)

// Hardware counters (index Phase.Rates with these).
const (
	Instructions = counters.Instructions
	Cycles       = counters.Cycles
	L1DMisses    = counters.L1DMisses
	L2Misses     = counters.L2Misses
	L3Misses     = counters.L3Misses
	Loads        = counters.Loads
	Stores       = counters.Stores
	Branches     = counters.Branches
	BranchMisses = counters.BranchMisses
	FPOps        = counters.FPOps
	Energy       = counters.Energy
)

// MultiplexedOptions returns DefaultOptions with a realistic 4-register PMU
// rotation instead of the idealized native PMU: every counter group carries
// Instructions+Cycles plus two rotating events, and the analysis
// reconstructs the full metric set per phase from the rotated observations.
func MultiplexedOptions() Options {
	opt := core.DefaultOptions()
	opt.Schedule = counters.NewSchedule(counters.DefaultGroups())
	return opt
}

// DefaultOptions returns the standard pipeline configuration (1 ms coarse
// sampling, stack capture, DBSCAN structure detection, BIC-selected PWL).
func DefaultOptions() Options { return core.DefaultOptions() }

// DefaultConfig returns the standard simulated-execution configuration
// (4 ranks, 200 iterations, 2 GHz, seed 42).
func DefaultConfig() Config { return simapp.DefaultConfig() }

// NewApp instantiates a bundled simulated application by name; see AppNames.
func NewApp(name string) (App, error) { return simapp.NewApp(name) }

// AppNames lists the bundled simulated applications.
func AppNames() []string { return simapp.AppNames() }

// RunApp executes a simulated application, producing a trace and ground
// truth without analyzing it.
func RunApp(app App, cfg Config, opt Options) (*RunResult, error) {
	return core.RunApp(app, cfg, opt)
}

// Option tunes one call to a canonical entry point (Decode, DecodeText,
// Analyze, AnalyzeApp). Options compose left to right; the empty set means
// DefaultOptions, strict-format decoding, and no attached telemetry.
type Option func(*settings)

// settings is the resolved form of an Option list: the analysis Options,
// the decoder DecodeOptions, the streaming knobs, and any context
// attachments, kept in one place so every entry point interprets the same
// options the same way.
type settings struct {
	opt           Options
	decode        DecodeOptions
	window        int
	snapshotEvery int
	ctx           []func(context.Context) context.Context
}

func newSettings(opts []Option) *settings {
	s := &settings{opt: core.DefaultOptions()}
	for _, o := range opts {
		o(s)
	}
	return s
}

// context applies the accumulated attachments (telemetry, logger) to ctx.
func (s *settings) context(ctx context.Context) context.Context {
	for _, fn := range s.ctx {
		ctx = fn(ctx)
	}
	return ctx
}

// WithOptions replaces the whole analysis Options struct — the escape hatch
// for knobs without a dedicated functional option. Options listed after it
// still apply on top.
func WithOptions(opt Options) Option {
	return func(s *settings) { s.opt = opt }
}

// WithSalvage makes decoding recover what a damaged stream still holds and
// report the repairs in the SalvageReport instead of failing.
func WithSalvage() Option {
	return func(s *settings) { s.decode.Salvage = true }
}

// WithStrict makes the analysis fail fast instead of degrading: budget
// overruns wrap ErrBudget, recovered stage panics wrap ErrPanic, and
// damaged per-rank input is an error rather than a diagnostic.
func WithStrict() Option {
	return func(s *settings) { s.opt.Strict = true }
}

// WithBudget caps what the analysis may consume (records, ranks, resident
// bytes, per-stage wall-clock); see Budget.
func WithBudget(b Budget) Option {
	return func(s *settings) { s.opt.Budget = b }
}

// WithParallelism caps the worker count of every parallel stage: sectioned
// trace decode, burst extraction, per-cluster folding, and PWL fitting.
// Zero or negative means one worker per available CPU; 1 runs every stage
// inline on the calling goroutine. The result is identical at any setting.
func WithParallelism(n int) Option {
	return func(s *settings) {
		s.opt.Parallelism = n
		s.decode.Parallelism = n
	}
}

// WithWindow caps how many records a streaming Session may buffer — the
// samples that cannot attach to a computation burst yet. A Feed that would
// exceed the window fails with ErrWindow, bounding the session's memory on
// pathological streams. The events a rank's counter check holds until its
// samples pass them (in container order, up to one rank's event section)
// are not counted. Zero (the default) uses the engine's default window.
// Batch entry points ignore it.
func WithWindow(records int) Option {
	return func(s *settings) { s.window = records }
}

// WithSnapshotEvery sets the streaming Session's snapshot recompute cadence
// in bursts: Session.Snapshot returns the cached view until at least this
// many new bursts completed. Zero (the default) uses the engine's default
// cadence. Batch entry points ignore it.
func WithSnapshotEvery(bursts int) Option {
	return func(s *settings) { s.snapshotEvery = bursts }
}

// WithTelemetry attaches a span recorder and a metrics registry to the
// call's context; either may be nil to enable only the other.
func WithTelemetry(rec *SpanRecorder, reg *MetricsRegistry) Option {
	return func(s *settings) {
		s.ctx = append(s.ctx, func(ctx context.Context) context.Context {
			return obs.WithTelemetry(ctx, rec, reg)
		})
	}
}

// WithLogger attaches a structured event logger (log/slog) to the call's
// context; the pipeline emits diagnostics, budget trims, salvage repairs,
// retries, and recovered panics as typed events on it.
func WithLogger(l *slog.Logger) Option {
	return func(s *settings) {
		s.ctx = append(s.ctx, func(ctx context.Context) context.Context {
			return obs.WithLogger(ctx, l)
		})
	}
}

// Analyze runs the analysis pipeline over an acquired trace. Cancelling ctx
// interrupts every stage promptly; the returned error then matches
// ErrCanceled (or the context's deadline error).
func Analyze(ctx context.Context, tr *Trace, opts ...Option) (*Model, error) {
	s := newSettings(opts)
	return core.Analyze(s.context(ctx), tr, s.opt)
}

// AnalyzeApp runs a simulated application and analyzes its trace in one
// call. The simulated acquisition itself is not interruptible; the analysis
// stages are.
func AnalyzeApp(ctx context.Context, app App, cfg Config, opts ...Option) (*Model, *RunResult, error) {
	s := newSettings(opts)
	return core.AnalyzeApp(s.context(ctx), app, cfg, s.opt)
}

// PhaseRef names one phase within a Model, as returned by the
// programmable-analysis queries.
type PhaseRef = query.PhaseRef

// OptimizationHint applies the methodology's canonical triage recipe: the
// most expensive attributed phase wider than 10% of its region with IPC
// below 1 — the place a small code transformation pays off first. ok is
// false when no phase qualifies.
func OptimizationHint(m *Model) (PhaseRef, bool) {
	return query.OptimizationHint(m)
}

// Robustness re-exports: degraded-mode analysis diagnostics, salvage
// decoding, and deterministic fault injection for resilience experiments.
type (
	// Diagnostic is one observation the degraded-mode analyzer recorded
	// while working around damaged input; see Model.Diagnostics.
	Diagnostic = core.Diagnostic
	// Severity grades a Diagnostic.
	Severity = core.Severity
	// Quality grades a ClusterAnalysis (OK, Degraded, Rejected).
	Quality = core.Quality

	// DecodeOptions selects strict or salvage decoding.
	DecodeOptions = trace.DecodeOptions
	// SalvageReport describes what a salvage decode recovered.
	SalvageReport = trace.SalvageReport

	// FaultChain is a parsed, seeded sequence of trace perturbators.
	FaultChain = faults.Chain

	// Budget caps what an analysis may consume (records, ranks, resident
	// bytes, per-stage wall-clock); see Options.Budget. The zero value is
	// unlimited. In lenient mode an exceeded budget degrades the analysis
	// with budget_exceeded diagnostics; with Options.Strict it fails fast
	// wrapping ErrBudget.
	Budget = core.Budget
)

// Quality grades and diagnostic severities.
const (
	QualityOK       = core.QualityOK
	QualityDegraded = core.QualityDegraded
	QualityRejected = core.QualityRejected

	SeverityInfo  = core.SeverityInfo
	SeverityWarn  = core.SeverityWarn
	SeverityError = core.SeverityError
)

// Failure sentinels for errors.Is dispatch on Decode and Analyze errors.
// The four umbrella sentinels — ErrFormat, ErrBudget, ErrPanic, ErrCanceled
// — partition every pipeline failure; the remaining names refine ErrFormat.
var (
	// ErrFormat is the umbrella every malformed-input sentinel below
	// matches under errors.Is: dispatch on it when all decode failures are
	// handled alike, or on a specific sentinel to refine.
	ErrFormat = trace.ErrFormat

	ErrBadMagic  = trace.ErrBadMagic
	ErrTruncated = trace.ErrTruncated
	ErrCorrupt   = trace.ErrCorrupt
	ErrNoRanks   = trace.ErrNoRanks
	ErrInvalid   = trace.ErrInvalid

	// ErrBudget tags strict-mode analyses that exceeded their Budget;
	// ErrPanic tags strict-mode analyses that recovered an internal panic.
	ErrBudget = core.ErrBudget
	ErrPanic  = core.ErrPanic

	// ErrCanceled tags analyses and decodes interrupted by their context —
	// context.Canceled re-exported so callers can dispatch on every
	// pipeline failure class with one import. Deadline expiry still
	// surfaces as context.DeadlineExceeded.
	ErrCanceled = context.Canceled
)

// Decode reads a binary-format trace — the sectioned "PFT2" container,
// decoded rank-parallel under WithParallelism by the same parser Consume
// streams through; the retired "PFT1" layout fails with ErrBadMagic.
// Cancellation is polled throughout and never absorbed by salvage.
// The SalvageReport is non-nil only under WithSalvage, which recovers what
// a damaged stream still holds and reports the repairs instead of failing.
func Decode(ctx context.Context, r io.Reader, opts ...Option) (*Trace, *SalvageReport, error) {
	s := newSettings(opts)
	return trace.Decode(s.context(ctx), r, s.decode)
}

// DecodeText reads a text-format trace; options as for Decode. The
// line-oriented format decodes on a single goroutine regardless of
// WithParallelism.
func DecodeText(ctx context.Context, r io.Reader, opts ...Option) (*Trace, *SalvageReport, error) {
	s := newSettings(opts)
	return trace.DecodeText(s.context(ctx), r, s.decode)
}

// Streaming re-exports: the incremental analysis engine behind Stream.
type (
	// StreamSnapshot is a point-in-time view of the phases forming inside a
	// streaming session; see Session.Snapshot.
	StreamSnapshot = stream.Snapshot
	// StreamClusterState is one provisional cluster within a StreamSnapshot.
	StreamClusterState = stream.ClusterState
	// StreamPhasePreview is one provisional phase of a forming cluster.
	StreamPhasePreview = stream.PhasePreview
	// StreamHeader describes a stream before its records arrive; see
	// Session.Open.
	StreamHeader = stream.Header
	// Chunk is one batch of records for a single rank, fed via Session.Feed.
	Chunk = trace.Chunk
	// Event is one instrumentation event record.
	Event = trace.Event
	// Sample is one periodic counter sample record.
	Sample = trace.Sample
	// StackID references an interned call stack in a stream's header.
	StackID = callstack.StackID
)

// NoStack marks a sample that carries no call-stack reference.
const NoStack = callstack.NoStack

// Streaming failure sentinels.
var (
	// ErrWindow tags feeds that would exceed the session's bounded record
	// window (see WithWindow).
	ErrWindow = stream.ErrWindow
	// ErrSessionDone tags operations on a session whose Done already ran.
	ErrSessionDone = stream.ErrFinished
)

// Session is an incremental analysis in progress, produced by Stream. Feed
// it exactly one input — Consume for a binary container arriving over a
// reader, FeedTrace for a resident trace, or Open followed by Feed for
// caller-produced record chunks — then Snapshot at will and Done once.
// Methods are safe for concurrent use.
type Session struct {
	ctx      context.Context
	settings *settings
	mu       sync.Mutex
	inner    *stream.Session
	report   *SalvageReport
}

// Stream opens an incremental analysis session: the streaming counterpart
// of Analyze, accepting the same functional options plus the streaming
// knobs (WithWindow, WithSnapshotEvery). Records are analyzed as they
// arrive — bursts extract, clouds fold, and provisional clusters form
// online — holding only a bounded window of unattached records; Done runs
// the final clustering and regression and returns a model byte-identical
// to batch Analyze over the same records. Cancelling ctx interrupts the
// session promptly.
func Stream(ctx context.Context, opts ...Option) (*Session, error) {
	s := newSettings(opts)
	return &Session{ctx: s.context(ctx), settings: s}, nil
}

// bind creates the inner session once the stream's header is known.
func (s *Session) bind(hdr stream.Header) error {
	if s.inner != nil {
		return fmt.Errorf("phasefold: session already bound to an input")
	}
	inner, err := stream.New(s.ctx, hdr, stream.Options{
		Core:          s.settings.opt,
		Window:        s.settings.window,
		SnapshotEvery: s.settings.snapshotEvery,
	})
	if err != nil {
		return err
	}
	s.inner = inner
	return nil
}

// Open binds the session to a stream described by hdr, for callers that
// produce record chunks themselves (see Feed) rather than a container
// (Consume) or a resident trace (FeedTrace). A session accepts exactly one
// input; Open after any of the three fails.
func (s *Session) Open(hdr StreamHeader) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.bind(hdr)
}

// Feed hands the session one batch of records for a single rank. The session
// must have been bound with Open first. Records are analyzed immediately;
// samples that may still attach to an unfinished burst stay buffered, and
// exceeding the configured window fails the session with ErrWindow. The
// session takes ownership of the chunk: a rank's events are kept until its
// samples pass them, so the caller must not modify them afterwards. Each
// rank's records must come in per-rank order: every event before the
// rank's samples at or after its time, as a container's rank sections hold
// them. An event at or before a sample of its rank already fed is rejected
// as out of order (ErrInvalid): strict mode fails, lenient mode drops the
// rank.
func (s *Session) Feed(c Chunk) error {
	s.mu.Lock()
	inner := s.inner
	s.mu.Unlock()
	if inner == nil {
		return fmt.Errorf("phasefold: session not bound; call Open before Feed (%w)", trace.ErrNoRanks)
	}
	return inner.Feed(c)
}

// Consume streams a binary-format container ("PFT2") from r, analyzing
// records chunk by chunk while bytes arrive — never holding the decoded
// trace in memory. The container is decoded ahead of the analysis on a
// second goroutine, a few chunks at most, and the chunks are analyzed in
// stream order, so the model is the same. The session holds its window,
// the chunks in flight, and what the analysis keeps per burst: the burst
// list and each rank's folded rows. Under WithSalvage a damaged stream
// yields what was recovered (see SalvageReport); otherwise the first damage
// fails the session. Consume returns when the stream ends or the session
// fails, once the decoding goroutine has stopped; a read in progress is
// finished first.
func (s *Session) Consume(r io.Reader) error {
	cr, err := trace.NewChunkReader(s.ctx, r, s.settings.decode)
	if err != nil {
		return err
	}
	s.mu.Lock()
	if err := s.bind(stream.Header{
		App: cr.App(), NumRanks: cr.NumRanks(), Symbols: cr.Symbols(), Stacks: cr.Stacks(),
	}); err != nil {
		s.mu.Unlock()
		return err
	}
	inner := s.inner
	s.mu.Unlock()
	if err := inner.Consume(cr, streamChunkRecords, nil); err != nil {
		return err
	}
	s.mu.Lock()
	s.report = inner.SalvageReport()
	s.mu.Unlock()
	return nil
}

// streamChunkRecords is the record granularity Consume hands the session:
// small enough to keep snapshots fresh, large enough to amortize decode
// state transitions.
const streamChunkRecords = 4096

// FeedTrace streams a resident trace through the session — the front half
// batch Analyze runs, fanned out over WithParallelism workers, mostly
// useful to reuse streaming snapshots on already-decoded data. Done
// afterwards returns exactly what batch Analyze over tr returns, the
// per-rank repairs of damaged ranks included.
func (s *Session) FeedTrace(tr *Trace) error {
	s.mu.Lock()
	if s.inner == nil {
		if err := s.bind(stream.Header{
			App: tr.AppName, NumRanks: tr.NumRanks(), Symbols: tr.Symbols, Stacks: tr.Stacks,
		}); err != nil {
			s.mu.Unlock()
			return err
		}
	}
	inner := s.inner
	s.mu.Unlock()
	return inner.FeedTrace(tr)
}

// Snapshot returns a point-in-time view of the analysis forming inside the
// session: burst and buffer counts, and — once enough bursts completed to
// train the provisional clustering model — the live clusters with preview
// phase boundaries. Labels are provisional; Done's full re-clustering is
// authoritative. Returns nil before any input is bound.
func (s *Session) Snapshot() *StreamSnapshot {
	s.mu.Lock()
	inner := s.inner
	s.mu.Unlock()
	if inner == nil {
		return nil
	}
	return inner.Snapshot()
}

// Done ends the stream and runs the final clustering, folding, and
// regression over everything the session accumulated. The model is
// byte-identical to batch Analyze over the same records. The session
// cannot be fed afterwards; calling Done again returns ErrSessionDone.
func (s *Session) Done() (*Model, error) {
	s.mu.Lock()
	inner := s.inner
	s.mu.Unlock()
	if inner == nil {
		return nil, fmt.Errorf("phasefold: session was never fed (%w)", trace.ErrNoRanks)
	}
	return inner.Done()
}

// SalvageReport returns what a salvaging Consume recovered, nil otherwise
// (including before Consume finished).
func (s *Session) SalvageReport() *SalvageReport {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.report
}

// BufferedRecords returns the records the session currently buffers — the
// samples that may still attach to an unfinished burst.
func (s *Session) BufferedRecords() int {
	s.mu.Lock()
	inner := s.inner
	s.mu.Unlock()
	if inner == nil {
		return 0
	}
	return inner.BufferedRecords()
}

// PeakBufferedRecords returns the high-water mark of BufferedRecords — the
// bounded-memory figure WithWindow caps.
func (s *Session) PeakBufferedRecords() int {
	s.mu.Lock()
	inner := s.inner
	s.mu.Unlock()
	if inner == nil {
		return 0
	}
	return inner.PeakBufferedRecords()
}

// Observability re-exports: stage spans, the metrics registry, structured
// event logging, and per-run manifests. Attach any subset via the
// WithTelemetry/WithLogger options on Analyze or the decoders (or directly
// on a context with ContextWithTelemetry/ContextWithLogger) and the
// pipeline records itself; with nothing attached every instrumentation
// point is a no-op.
type (
	// MetricsRegistry holds a run's counters, gauges, and histograms; export
	// with WritePrometheus (text exposition format) or MarshalJSON.
	MetricsRegistry = obs.Registry
	// SpanRecorder collects the run's stage span trees.
	SpanRecorder = obs.Recorder
	// Span is one timed, attributed, possibly nested unit of pipeline work.
	Span = obs.Span
	// RunReport is the per-run manifest: options fingerprint, input sizes,
	// stage durations, outcome, and diagnostics, serializable to JSON.
	RunReport = obs.RunReport
	// StageReport is the serialized form of one recorded span.
	StageReport = obs.StageReport
	// InputInfo describes one analyzed input in a RunReport.
	InputInfo = obs.InputInfo
	// Diag is the structured (kind, stage, detail) core of a Diagnostic —
	// the shape to match on instead of parsing message strings.
	Diag = core.Diag
)

// NewMetricsRegistry returns an empty metrics registry.
func NewMetricsRegistry() *MetricsRegistry { return obs.NewRegistry() }

// NewSpanRecorder returns an empty stage-span recorder.
func NewSpanRecorder() *SpanRecorder { return obs.NewRecorder() }

// ContextWithTelemetry attaches a span recorder and a metrics registry to
// ctx directly — for contexts that outlive one call; the WithTelemetry
// option is usually more convenient. Either may be nil to enable only the
// other.
func ContextWithTelemetry(ctx context.Context, rec *SpanRecorder, reg *MetricsRegistry) context.Context {
	return obs.WithTelemetry(ctx, rec, reg)
}

// ContextWithLogger attaches a structured event logger (log/slog) to ctx
// directly; see the WithLogger option.
func ContextWithLogger(ctx context.Context, l *slog.Logger) context.Context {
	return obs.WithLogger(ctx, l)
}

// StartSpan opens a span nested under the context's current span (or as a
// new root when none). It returns ctx unchanged and a nil (inert) span when
// the context carries no SpanRecorder; the caller must End the span.
func StartSpan(ctx context.Context, name string) (context.Context, *Span) {
	return obs.StartSpan(ctx, name)
}

// SpanFromContext returns the current span carried by ctx, or nil.
func SpanFromContext(ctx context.Context) *Span { return obs.SpanFromContext(ctx) }

// MetricsFromContext returns the metrics registry carried by ctx, or nil —
// whose instruments are all inert.
func MetricsFromContext(ctx context.Context) *MetricsRegistry { return obs.Metrics(ctx) }

// Fingerprint returns a short stable hash of v's rendered value — the
// options fingerprint recorded in run manifests.
func Fingerprint(v any) string { return obs.Fingerprint(v) }

// Export re-exports: rendering a finished Model into interchange formats
// (Perfetto timelines, folded flamegraph stacks, OpenMetrics snapshots)
// and the interactive HTML report server. Everything here is strictly
// post-analysis: a pipeline that never exports pays nothing for it.
type (
	// ExportView is the stable, self-contained export representation of a
	// Model — every label, frame, and metric resolved to plain values.
	ExportView = core.ExportView
	// ReportServer serves the interactive HTML report (timeline, sortable
	// tables, artifact downloads, SSE batch progress).
	ReportServer = export.Server
)

// ExportModel builds the stable export view of a finished model; tr (the
// analyzed trace) supplies rank extents and symbol names and may be nil.
func ExportModel(m *Model, tr *Trace) *ExportView { return m.Export(tr) }

// WritePerfetto writes the view as Chrome trace-event JSON, loadable in
// ui.perfetto.dev: one track per rank (bursts and phase subdivisions),
// one per cluster (representative burst), diagnostics as instants.
func WritePerfetto(w io.Writer, v *ExportView) error { return export.WritePerfetto(w, v) }

// WriteFlamegraph writes the view's per-phase attribution as folded stacks
// (flamegraph.pl / speedscope input). weight is "" for phase time or a
// captured counter name; see FlamegraphWeights.
func WriteFlamegraph(w io.Writer, v *ExportView, weight string) error {
	return export.WriteFlamegraph(w, v, weight)
}

// FlamegraphWeights lists the weightings available for a view: phase time
// ("") plus each captured counter.
func FlamegraphWeights(v *ExportView) []string { return export.FlamegraphWeights(v) }

// SnapshotMetrics renders the view's per-phase results as a metrics
// registry (gauges under phasefold_); export with WritePrometheus or
// WriteJSON.
func SnapshotMetrics(v *ExportView) *MetricsRegistry { return export.Snapshot(v) }

// NewReportServer returns an HTML report server; call SetView, then
// ListenAndServe.
func NewReportServer() *ReportServer { return export.NewServer() }

// ParseFaults parses a fault-injection spec like "drop=0.2,skew=50us" into a
// deterministic seeded chain; see KnownFaults for the registry.
func ParseFaults(spec string, seed uint64) (*FaultChain, error) {
	return faults.Parse(spec, seed)
}

// KnownFaults lists the registered fault classes.
func KnownFaults() []string { return faults.Known() }

// EncodeTrace writes a trace in the binary container format (sectioned
// "PFT2", encoded rank-parallel).
func EncodeTrace(w io.Writer, tr *Trace) error { return trace.Encode(w, tr) }

// EncodeTraceText writes a trace in the human-readable text format.
func EncodeTraceText(w io.Writer, tr *Trace) error { return trace.EncodeText(w, tr) }

// Service re-exports: the multi-tenant analysis daemon behind
// cmd/phasefoldd — HTTP trace uploads through admission control, a bounded
// queue, the supervised pipeline, and a content-addressed result cache.
type (
	// AnalysisService is a running daemon instance: mount Handler (or call
	// ListenAndServe) and stop with Drain.
	AnalysisService = service.Service
	// ServiceConfig sizes a daemon; start from DefaultServiceConfig.
	ServiceConfig = service.Config
	// ServiceStats is the daemon's live counter snapshot (/v1/stats).
	ServiceStats = service.Stats
)

// DefaultServiceConfig returns the production-shaped daemon configuration:
// salvage decoding, bounded queue/cache/admission, supervised jobs.
func DefaultServiceConfig() ServiceConfig { return service.Defaults() }

// NewAnalysisService builds a daemon from cfg; the worker pool starts
// immediately, serving starts when its Handler is mounted (or via
// ListenAndServe).
func NewAnalysisService(cfg ServiceConfig) (*AnalysisService, error) { return service.New(cfg) }
