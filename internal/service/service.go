// Package service is the multi-tenant analysis daemon behind cmd/phasefoldd:
// an HTTP front end that accepts PFT trace uploads and turns them into the
// phase-analysis results the export layer renders, built to stay up under
// hostile, bursty load.
//
// The request path is admission → queue → runner → cache → export:
//
//   - Admission: per-tenant token buckets shed excess load at the edge with
//     429 + Retry-After before it costs anything; request bodies are
//     bounded and spooled to temp files while being content-hashed.
//   - Queue: a bounded job queue with reject-on-full backpressure (503 +
//     Retry-After) — the accept loop never blocks on analysis.
//   - Runner: every job runs under the internal/runner Supervisor — per-job
//     timeout, retries with clamped full-jitter backoff, panic capture, and
//     a per-digest circuit breaker with half-open recovery — so one hostile
//     trace cannot take a worker down or wedge the pool.
//   - Cache: results are content-addressed by (trace digest, options
//     fingerprint) in a bounded LRU; identical re-uploads are served
//     byte-identically without re-running analysis, and concurrent
//     identical uploads coalesce onto one in-flight job (single-flight).
//   - Export: per-result Perfetto timelines, flamegraphs, and metric
//     snapshots are rendered once at job completion and served from the
//     cache.
//
// With a StateDir configured the daemon is also restart-proof:
//
//   - Durable store: finished results persist on disk, content-addressed
//     and atomically written (temp dir + fsync + rename), double-bounded
//     with TTL expiry; the in-memory LRU becomes a read-through layer, so
//     a restart serves yesterday's results byte-identically from disk.
//   - Intake journal: accepted uploads are journaled (and fsynced) before
//     they enter the queue; startup recovery re-enqueues journaled jobs a
//     crash interrupted and sweeps orphaned spool files.
//   - Disk-fault degradation: EIO/ENOSPC/corruption never fails a client
//     request — the daemon falls back to memory-only caching, counts the
//     faults, notes it on /readyz, and probes the disk until it heals.
//
// Health (/healthz) is liveness; readiness (/readyz) is wired to queue
// depth and the drain state, so a load balancer stops routing before the
// queue rejects. Drain stops admissions, lets in-flight jobs finish inside
// a deadline, cancels the rest cleanly, and leaves every waiter answered.
package service

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"phasefold/internal/core"
	"phasefold/internal/export"
	"phasefold/internal/faults"
	"phasefold/internal/obs"
	"phasefold/internal/obs/otlp"
	"phasefold/internal/runner"
	"phasefold/internal/stream"
	"phasefold/internal/trace"
)

// Config sizes the daemon. The zero value is not runnable; use Defaults()
// as the base and override.
type Config struct {
	// MaxBodyBytes bounds one upload; larger bodies are rejected with 413
	// before they are spooled.
	MaxBodyBytes int64
	// QueueDepth bounds the job queue (queued, not yet running). A full
	// queue rejects with 503 + Retry-After instead of blocking the accept
	// loop.
	QueueDepth int
	// Workers is the analysis worker pool size; <=0 means GOMAXPROCS.
	Workers int
	// JobTimeout, Retries, BreakerCooldown parameterize the runner
	// supervisor each job runs under.
	JobTimeout      time.Duration
	Retries         int
	BreakerCooldown time.Duration
	// TenantRate and TenantBurst parameterize each tenant's admission
	// token bucket: sustained uploads/sec and burst allowance.
	TenantRate  float64
	TenantBurst int
	// MaxTenants bounds the admission table (hostile tenant-id churn).
	MaxTenants int
	// CacheEntries and CacheBytes bound the in-memory result cache.
	CacheEntries int
	CacheBytes   int64
	// StateDir enables the durability layer: results persist under
	// <StateDir>/results and survive restarts, and (with Journal) accepted
	// uploads are journaled for crash recovery. "" disables persistence —
	// the daemon is memory-only, exactly as before.
	StateDir string
	// CacheTTL bounds how long a persisted result may serve; <=0 means 24h.
	CacheTTL time.Duration
	// CacheDiskEntries and CacheDiskBytes bound the on-disk result store.
	CacheDiskEntries int
	CacheDiskBytes   int64
	// Journal enables the write-ahead intake journal (needs StateDir):
	// accepted uploads are journaled before enqueue and replayed after a
	// crash.
	Journal bool
	// FS is the filesystem seam the durability layer writes through; nil
	// means the real filesystem. Tests inject faults.FaultyFS here.
	FS faults.FS
	// SpoolDir receives upload temp files; "" means os.TempDir().
	SpoolDir string
	// Logger receives the daemon's structured events (recovery, sweeps,
	// disk-fault degradation); nil disables.
	Logger *slog.Logger
	// Analysis and Decode are the fixed pipeline options every upload is
	// analyzed under; they are part of the cache key fingerprint.
	Analysis core.Options
	Decode   trace.DecodeOptions
	// Registry receives the daemon's metrics; nil disables (nil-safe).
	Registry *obs.Registry
	// Debug, when non-nil, is mounted at /debug/ and /metrics (the obs
	// debug mux: pprof, expvar, live exposition).
	Debug http.Handler
	// JobsHistory sizes the recent-jobs ring behind GET /v1/jobs; <=0
	// means 256.
	JobsHistory int
	// SlowJob is the end-to-end duration past which a job is logged with
	// its full span tree (and optionally CPU-profiled while still over the
	// threshold); <=0 disables.
	SlowJob time.Duration
	// SlowJobProfile captures a CPU profile while a job runs past the
	// SlowJob threshold (one capture at a time, bounded length).
	SlowJobProfile bool
	// ProfileDir receives slow-job CPU profiles; "" means StateDir, then
	// the system temp dir.
	ProfileDir string
	// OTLP, when non-nil, receives every finished job span tree and is
	// flushed during Drain; the owning main shuts it down after Drain.
	// Nil disables export (all hooks are nil-safe).
	OTLP *otlp.Exporter
}

// Defaults returns the production-shaped configuration: lenient salvage
// decoding (a damaged upload yields a degraded result, not an error),
// budget-capped analysis, and bounds everywhere.
func Defaults() Config {
	opt := core.DefaultOptions()
	return Config{
		MaxBodyBytes:     256 << 20,
		QueueDepth:       64,
		Workers:          0,
		JobTimeout:       2 * time.Minute,
		Retries:          1,
		BreakerCooldown:  30 * time.Second,
		TenantRate:       4,
		TenantBurst:      16,
		MaxTenants:       1024,
		CacheEntries:     256,
		CacheBytes:       512 << 20,
		CacheTTL:         24 * time.Hour,
		CacheDiskEntries: 4096,
		CacheDiskBytes:   2 << 30,
		Journal:          true,
		JobsHistory:      256,
		SlowJob:          time.Minute,
		Analysis:         opt,
		Decode:           trace.DecodeOptions{Salvage: true},
	}
}

// Service is one daemon instance. Create with New, serve its Handler (or
// ListenAndServe), and stop with Drain.
type Service struct {
	cfg   Config
	adm   *admission
	cache *cache
	store *store   // durable result store; nil when StateDir is unset
	wal   *journal // write-ahead intake journal; nil when disabled
	fly   *flightGroup
	pool  *pool
	reg   *obs.Registry
	log   *slog.Logger

	// jobs is the recent-lifecycle ring behind GET /v1/jobs.
	jobs *jobLog

	// dash is the live ops dashboard; dashStop/dashDone bracket its
	// publisher goroutine.
	dash     *export.Dashboard
	dashStop chan struct{}
	dashDone chan struct{}

	// stageRings/depthRing hold the recent samples the dashboard
	// sparklines draw from.
	ringsMu    sync.Mutex
	stageRings map[string]*ring
	depthRing  *ring

	// spoolSweepAge gates the startup orphan-spool sweep (tests shrink it).
	spoolSweepAge time.Duration

	// sweepStop/sweepDone bracket the TTL sweeper goroutine's lifetime.
	sweepStop chan struct{}
	sweepDone chan struct{}

	// fpBinary/fpText are the options fingerprints for the two input
	// formats, computed once: the analysis options are fixed for the
	// daemon's lifetime, so per-request fingerprinting is a map of format
	// to constant.
	fpBinary string
	fpText   string

	// runCtx is the lifetime context every job runs under; cancelRun ends
	// it when the drain deadline expires.
	runCtx    context.Context
	cancelRun context.CancelFunc

	draining  atomic.Bool
	drainOnce sync.Once
	start     time.Time

	httpSrv *http.Server

	// counters for /v1/stats.
	nAdmitted  atomic.Int64
	nRejected  atomic.Int64
	nHits      atomic.Int64
	nCoalesced atomic.Int64
	nMisses    atomic.Int64
	nAbandoned atomic.Int64 // waiters that gave up before their job finished
	nRecovered atomic.Int64 // journaled jobs re-enqueued at startup
	nLost      atomic.Int64 // journaled jobs whose spool vanished
	nOrphans   atomic.Int64 // unclaimed spool files swept at startup
	nStreamed  atomic.Int64 // uploads served by the streamed fast path
	outcomesMu sync.Mutex
	outcomes   map[string]int64

	// livePhases is the latest streaming-session snapshot, shown on the
	// dashboard while a streamed upload is in flight (nil between them).
	livePhases atomic.Pointer[stream.Snapshot]

	// testJobGate, when non-nil (tests only), makes every worker wait for
	// one receive before running its next job — a deterministic way to
	// fill the queue and observe backpressure.
	testJobGate chan struct{}
}

// New builds a service from cfg. The returned service is running (workers
// started) but not listening; mount Handler or call ListenAndServe.
func New(cfg Config) (*Service, error) {
	if cfg.MaxBodyBytes <= 0 {
		return nil, fmt.Errorf("service: MaxBodyBytes must be positive")
	}
	if cfg.QueueDepth <= 0 {
		return nil, fmt.Errorf("service: QueueDepth must be positive")
	}
	runCtx, cancel := context.WithCancel(context.Background())
	runCtx = obs.WithTelemetry(runCtx, nil, cfg.Registry)
	log := cfg.Logger
	if log == nil {
		log = obs.NopLogger()
	}
	runCtx = obs.WithLogger(runCtx, log)
	jobsHistory := cfg.JobsHistory
	if jobsHistory <= 0 {
		jobsHistory = 256
	}
	s := &Service{
		cfg:           cfg,
		adm:           newAdmission(cfg.TenantRate, cfg.TenantBurst, cfg.MaxTenants),
		cache:         newCache(cfg.CacheEntries, cfg.CacheBytes, cfg.Registry),
		fly:           newFlightGroup(),
		reg:           cfg.Registry,
		log:           log,
		jobs:          newJobLog(jobsHistory),
		stageRings:    make(map[string]*ring),
		depthRing:     newRing(dashRingLen),
		spoolSweepAge: defaultSpoolSweepAge,
		runCtx:        runCtx,
		cancelRun:     cancel,
		start:         time.Now(),
		outcomes:      make(map[string]int64),
	}
	type fpInput struct {
		Analysis core.Options
		Decode   trace.DecodeOptions
		Format   string
	}
	s.fpBinary = obs.Fingerprint(fpInput{cfg.Analysis, cfg.Decode, "binary"})
	s.fpText = obs.Fingerprint(fpInput{cfg.Analysis, cfg.Decode, "text"})
	s.pool = newPool(s, cfg.QueueDepth, cfg.Workers, runner.Options{
		JobTimeout:      cfg.JobTimeout,
		Retries:         cfg.Retries,
		BreakerCooldown: cfg.BreakerCooldown,
	})
	if cfg.StateDir != "" {
		fsys := cfg.FS
		if fsys == nil {
			fsys = faults.OSFS{}
		}
		st, err := newStore(cfg.StateDir, cfg.CacheTTL, cfg.CacheDiskEntries,
			cfg.CacheDiskBytes, fsys, cfg.Registry, log)
		if err != nil {
			s.pool.closeIntake()
			cancel()
			return nil, fmt.Errorf("service: state dir: %w", err)
		}
		s.store = st
		var pending []journalRecord
		if cfg.Journal {
			w, pend, err := openJournal(filepath.Join(cfg.StateDir, "journal.log"),
				fsys, cfg.Registry, log)
			if err != nil {
				s.pool.closeIntake()
				cancel()
				return nil, fmt.Errorf("service: journal: %w", err)
			}
			s.wal, pending = w, pend
		}
		s.recoverState(pending)
		s.startSweeper(sweepInterval(cfg.CacheTTL))
	}
	s.startDashboard()
	return s, nil
}

// sweepInterval paces the TTL sweeper: a quarter of the TTL, clamped to
// [5s, 1m] — short TTLs expire promptly, long ones don't spin the disk.
func sweepInterval(ttl time.Duration) time.Duration {
	d := ttl / 4
	if d < 5*time.Second {
		d = 5 * time.Second
	}
	if d > time.Minute {
		d = time.Minute
	}
	return d
}

// startSweeper runs the periodic TTL sweep (which doubles as the degraded-
// disk probe) until Drain stops it.
func (s *Service) startSweeper(every time.Duration) {
	s.sweepStop = make(chan struct{})
	s.sweepDone = make(chan struct{})
	go func() {
		defer close(s.sweepDone)
		t := time.NewTicker(every)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				s.store.sweep()
			case <-s.sweepStop:
				return
			}
		}
	}()
}

// persistenceState summarizes the durability layer for /readyz and stats:
// "off" (no StateDir), "ok", or "degraded" (disk faulted, memory-only).
func (s *Service) persistenceState() string {
	if s.store == nil {
		return "off"
	}
	if s.store.isDegraded() || s.wal.isDegraded() {
		return "degraded"
	}
	return "ok"
}

// ListenAndServe binds addr and serves until Drain; it returns the bound
// address (useful with ":0").
func (s *Service) ListenAndServe(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", fmt.Errorf("service: %w", err)
	}
	s.httpSrv = &http.Server{Handler: s.Handler(), ReadHeaderTimeout: 10 * time.Second}
	go func() { _ = s.httpSrv.Serve(ln) }()
	return ln.Addr().String(), nil
}

// Draining reports whether the service has stopped admitting work.
func (s *Service) Draining() bool { return s.draining.Load() }

// Drain shuts the service down gracefully: stop admitting (readiness goes
// unready, new uploads get 503), let queued and in-flight jobs finish
// until ctx expires, then cancel the remainder — every waiter is answered
// either way — and finally stop the HTTP listener. Idempotent; the first
// call wins. It returns ctx.Err() when the deadline forced cancellation,
// nil when everything finished in time.
func (s *Service) Drain(ctx context.Context) error {
	var err error
	s.drainOnce.Do(func() {
		s.draining.Store(true)
		s.pool.closeIntake()

		finished := make(chan struct{})
		go func() {
			s.pool.wait()
			close(finished)
		}()
		select {
		case <-finished:
		case <-ctx.Done():
			// Deadline: cancel every running and queued job. Workers see
			// runCtx end between (and inside) attempts and return Canceled
			// promptly; waiters get the canceled result.
			err = ctx.Err()
			s.cancelRun()
			<-finished
		}
		s.cancelRun()
		if s.sweepStop != nil {
			close(s.sweepStop)
			<-s.sweepDone
		}
		s.stopDashboard()
		s.wal.close()
		// Ship the drained jobs' spans before the listener closes. The
		// drain context may already be spent on the deadline-forced path,
		// so the flush gets its own bounded budget.
		if s.cfg.OTLP != nil {
			fctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			_ = s.cfg.OTLP.Flush(fctx)
			cancel()
		}
		if s.httpSrv != nil {
			sctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			_ = s.httpSrv.Shutdown(sctx)
			cancel()
		}
	})
	return err
}

// fingerprint returns the options fingerprint for an input format.
func (s *Service) fingerprint(text bool) string {
	if text {
		return s.fpText
	}
	return s.fpBinary
}

// spoolDir returns the directory uploads spool to.
func (s *Service) spoolDir() string {
	if s.cfg.SpoolDir != "" {
		return s.cfg.SpoolDir
	}
	return os.TempDir()
}

// recordOutcome tallies a finished job's outcome for /v1/stats.
func (s *Service) recordOutcome(outcome string) {
	s.outcomesMu.Lock()
	s.outcomes[outcome]++
	s.outcomesMu.Unlock()
}

// Stats is the /v1/stats document: a live snapshot of the daemon's
// admission, queue, cache, and outcome counters.
type Stats struct {
	Version        string           `json:"version"`
	UptimeSec      float64          `json:"uptime_seconds"`
	Draining       bool             `json:"draining"`
	QueueDepth     int64            `json:"queue_depth"`
	QueueCap       int              `json:"queue_cap"`
	Workers        int              `json:"workers"`
	Tenants        int              `json:"tenants"`
	Admitted       int64            `json:"admitted"`
	Rejected       int64            `json:"rejected"`
	CacheHits      int64            `json:"cache_hits"`
	Coalesced      int64            `json:"coalesced"`
	Misses         int64            `json:"misses"`
	Streamed       int64            `json:"streamed,omitempty"`
	CacheEntries   int              `json:"cache_entries"`
	CacheBytes     int64            `json:"cache_bytes"`
	Evictions      int64            `json:"cache_evictions"`
	Abandoned      int64            `json:"abandoned"`
	Persistence    string           `json:"persistence"` // off | ok | degraded
	PersistEntries int              `json:"persist_entries,omitempty"`
	PersistBytes   int64            `json:"persist_bytes,omitempty"`
	PersistErrors  int64            `json:"persist_errors,omitempty"`
	JournalPending int              `json:"journal_pending,omitempty"`
	Recovered      int64            `json:"recovered,omitempty"`
	LostJobs       int64            `json:"lost_jobs,omitempty"`
	OrphansSwept   int64            `json:"orphans_swept,omitempty"`
	Outcomes       map[string]int64 `json:"outcomes,omitempty"`
	OTLP           *otlp.Stats      `json:"otlp,omitempty"`
}

// Snapshot collects the current Stats.
func (s *Service) Snapshot() Stats {
	entries, bytes, evictions := s.cache.stats()
	st := Stats{
		Version:      obs.Version(),
		UptimeSec:    time.Since(s.start).Seconds(),
		Draining:     s.draining.Load(),
		QueueDepth:   s.pool.depth.Load(),
		QueueCap:     s.cfg.QueueDepth,
		Workers:      s.pool.workers,
		Tenants:      s.adm.tenants(),
		Admitted:     s.nAdmitted.Load(),
		Rejected:     s.nRejected.Load(),
		CacheHits:    s.nHits.Load(),
		Coalesced:    s.nCoalesced.Load(),
		Misses:       s.nMisses.Load(),
		Streamed:     s.nStreamed.Load(),
		CacheEntries: entries,
		CacheBytes:   bytes,
		Evictions:    evictions,
		Abandoned:    s.nAbandoned.Load(),
		Persistence:  s.persistenceState(),
		Recovered:    s.nRecovered.Load(),
		LostJobs:     s.nLost.Load(),
		OrphansSwept: s.nOrphans.Load(),
		Outcomes:     make(map[string]int64),
	}
	if s.store != nil {
		st.PersistEntries, st.PersistBytes, st.PersistErrors, _ = s.store.stats()
		st.JournalPending = s.wal.pendingCount()
	}
	if s.cfg.OTLP != nil {
		ot := s.cfg.OTLP.StatsSnapshot()
		st.OTLP = &ot
	}
	s.outcomesMu.Lock()
	for k, v := range s.outcomes {
		st.Outcomes[k] = v
	}
	s.outcomesMu.Unlock()
	return st
}

// cacheable reports whether an outcome is deterministic enough to cache:
// ok, degraded, and failed results are properties of the bytes (the
// supervisor already retried transients); timeouts, quarantines, and
// cancellations are properties of the moment.
func cacheable(o runner.Outcome) bool {
	return o == runner.OK || o == runner.Degraded || o == runner.Failed
}

// statusFor maps a job outcome (and its error) to the HTTP status the
// result serves with.
func statusFor(o runner.Outcome, err error) int {
	switch o {
	case runner.OK, runner.Degraded:
		return http.StatusOK
	case runner.Failed:
		if errors.Is(err, trace.ErrFormat) {
			return http.StatusUnprocessableEntity
		}
		return http.StatusInternalServerError
	case runner.TimedOut:
		return http.StatusGatewayTimeout
	default: // Quarantined, Canceled
		return http.StatusServiceUnavailable
	}
}
