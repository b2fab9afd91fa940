// Command phasefoldd is the multi-tenant phase-analysis daemon: a
// long-lived HTTP service that accepts PFT trace uploads, analyzes them
// under the supervised pipeline, and serves the results and their export
// artifacts from a content-addressed cache.
//
// Usage:
//
//	phasefoldd -addr :8080
//	phasefoldd -addr :8080 -workers 8 -queue 128 -job-timeout 90s
//	phasefoldd -addr :8080 -rate 4 -burst 16        # per-tenant quota
//	phasefoldd -addr :8080 -manifest run.json -metrics run.prom -log-level info
//
// Endpoints:
//
//	POST /v1/traces                    upload a trace (binary; ?format=text for text),
//	                                   identify with the X-Tenant header; answers the
//	                                   JSON result document with X-Cache: hit|miss|coalesced
//	GET  /v1/results/{digest}          the stored result document
//	GET  /v1/results/{digest}/{name}   a rendered artifact: perfetto.json,
//	                                   flame.folded, snapshot.prom, snapshot.json
//	GET  /v1/jobs                      recent job lifecycles (?tenant=, ?outcome=, ?limit=)
//	GET  /v1/jobs/{id}                 one job's full span tree, by trace ID
//	GET  /v1/stats                     live admission/queue/cache counters
//	GET  /dash/                        live ops dashboard (SSE-updated)
//	GET  /healthz                      liveness
//	GET  /readyz                       readiness (503 while draining or saturated)
//	GET  /metrics, /debug/...          live Prometheus exposition, pprof, expvar
//
// Every accepted upload gets a trace ID — the client's X-Request-Id or
// W3C traceparent when present, minted otherwise — echoed on the
// X-Request-Id response header, stamped into the result document, and
// browsable as a span tree at /v1/jobs/{id}. The ID is persisted in the
// intake journal and the durable store, so a job interrupted by a crash
// keeps its trace across the restart. Jobs slower than -slow-job log
// their span tree; -slow-job-profile additionally captures a CPU profile
// while such a job is still running.
//
// Robustness is the point: per-tenant token-bucket admission control sheds
// excess load with 429 + Retry-After; the bounded job queue rejects on
// full (503) instead of blocking; every analysis runs under the
// internal/runner supervisor (timeout, retries with clamped full-jitter
// backoff, panic capture, per-digest circuit breaker with half-open
// recovery); and identical uploads are served byte-identically from the
// result cache without re-running analysis.
//
// With -state-dir the daemon is restart-proof: finished results persist on
// disk (content-addressed, atomically written, TTL-bounded via -cache-ttl
// and -cache-disk-bytes) and serve byte-identically after a restart, and a
// write-ahead intake journal (-journal) records every accepted upload
// before it is queued, so a crash — even kill -9 — loses no accepted work:
// the next start re-enqueues journaled unfinished jobs and sweeps orphaned
// spool files. Disk faults (EIO/ENOSPC/corruption) never fail a request;
// the daemon degrades to memory-only caching and says so on /readyz.
//
// SIGTERM/SIGINT drain gracefully: admissions stop, in-flight jobs finish
// (or are canceled at -drain-timeout), the manifest is sealed, and the
// process exits 130 per the shared exit-code contract.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"phasefold/internal/core"
	"phasefold/internal/exec"
	"phasefold/internal/obs"
	"phasefold/internal/obs/otlp"
	"phasefold/internal/service"
	"phasefold/internal/trace"
)

func main() {
	var (
		addr         = flag.String("addr", ":8080", "listen address")
		workers      = flag.Int("workers", 0, "analysis worker pool size (0 = CPU count)")
		queueDepth   = flag.Int("queue", 64, "bounded job queue depth (full queue rejects with 503)")
		jobTimeout   = flag.Duration("job-timeout", 2*time.Minute, "per-job wall-clock timeout")
		retries      = flag.Int("retries", 1, "retries for transient per-job failures")
		cooldown     = flag.Duration("breaker-cooldown", 30*time.Second, "circuit-breaker cooldown before a half-open probe")
		rate         = flag.Float64("rate", 4, "per-tenant sustained uploads per second")
		burst        = flag.Int("burst", 16, "per-tenant admission burst")
		maxTenants   = flag.Int("max-tenants", 1024, "bound on tracked tenants (stalest evicted)")
		maxBody      = flag.Int64("max-body", 256<<20, "upload size limit in bytes")
		cacheEntries = flag.Int("cache-entries", 256, "result-cache entry bound")
		cacheBytes   = flag.Int64("cache-bytes", 512<<20, "result-cache byte bound")
		drainTimeout = flag.Duration("drain-timeout", 30*time.Second, "graceful-drain deadline after SIGTERM")
		stateDir     = flag.String("state-dir", "", "durable state directory: results persist across restarts, accepted jobs recover after a crash (empty = memory-only)")
		cacheTTL     = flag.Duration("cache-ttl", 24*time.Hour, "persisted-result time-to-live (with -state-dir)")
		cacheDisk    = flag.Int64("cache-disk-bytes", 2<<30, "on-disk result-store byte bound (with -state-dir)")
		journalOn    = flag.Bool("journal", true, "write-ahead intake journal for crash recovery (with -state-dir)")
		spoolDir     = flag.String("spool", "", "upload spool directory (default: system temp)")
		parallel     = flag.Int("parallel", 0, "per-analysis parallelism (0 = CPU count)")
		maxRecords   = flag.Int("max-records", 0, "budget: max records analyzed per trace (0 = unlimited)")
		maxRanks     = flag.Int("max-ranks", 0, "budget: max ranks analyzed per trace (0 = unlimited)")
		strict       = flag.Bool("strict", false, "fail damaged uploads instead of salvaging to a degraded result")
		slowJob      = flag.Duration("slow-job", time.Minute, "end-to-end threshold past which a job logs its span tree as slow (0 disables)")
		slowProfile  = flag.Bool("slow-job-profile", false, "capture a CPU profile while a job runs past -slow-job (one capture at a time)")
		jobsHistory  = flag.Int("jobs-history", 256, "recent job traces kept for GET /v1/jobs and the dashboard")
		profileDir   = flag.String("profile-dir", "", "where slow-job CPU profiles land (default: -state-dir, else system temp)")
		sampleEvery  = flag.Duration("runtime-sample", 10*time.Second, "runtime resource gauge period (goroutines, heap, GC pause; 0 disables)")
	)
	// The shared telemetry surface (-metrics, -manifest, -log-level,
	// -pprof, -otlp-*) comes from obs, so the flags and their semantics
	// stay identical across all four binaries.
	cf := obs.RegisterTelemetryFlags(flag.CommandLine)
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintln(os.Stderr, "phasefoldd: unexpected arguments:", flag.Args())
		flag.Usage()
		os.Exit(obs.ExitUsage)
	}
	lvl, err := obs.ParseLevel(cf.LogLevel)
	if err != nil {
		fmt.Fprintln(os.Stderr, "phasefoldd:", err)
		os.Exit(obs.ExitUsage)
	}
	logger := obs.NewLogger(os.Stderr, lvl)

	cfg := service.Defaults()
	cfg.MaxBodyBytes = *maxBody
	cfg.QueueDepth = *queueDepth
	cfg.Workers = *workers
	cfg.JobTimeout = *jobTimeout
	cfg.Retries = *retries
	cfg.BreakerCooldown = *cooldown
	cfg.TenantRate = *rate
	cfg.TenantBurst = *burst
	cfg.MaxTenants = *maxTenants
	cfg.CacheEntries = *cacheEntries
	cfg.CacheBytes = *cacheBytes
	cfg.StateDir = *stateDir
	cfg.CacheTTL = *cacheTTL
	cfg.CacheDiskBytes = *cacheDisk
	cfg.Journal = *journalOn
	cfg.SpoolDir = *spoolDir
	cfg.Logger = logger
	cfg.Analysis.Parallelism = *parallel
	cfg.Analysis.Budget = core.Budget{MaxRecords: *maxRecords, MaxRanks: *maxRanks}
	cfg.Analysis.Strict = *strict
	cfg.Decode = trace.DecodeOptions{Salvage: !*strict, Exec: exec.Exec{Parallelism: *parallel}}
	cfg.SlowJob = *slowJob
	cfg.SlowJobProfile = *slowProfile
	cfg.JobsHistory = *jobsHistory
	cfg.ProfileDir = *profileDir

	// The daemon's telemetry is always live (it backs /metrics); -metrics
	// and -manifest additionally persist it at exit.
	reg := obs.NewRegistry()
	obs.RegisterBuildInfo(reg)
	cfg.Registry = reg
	cfg.Debug = obs.DebugMux(reg)

	// Runtime resource gauges are on by default in the daemon: a fleet
	// operator reads goroutines/heap/GC pause next to the job metrics.
	sampler := obs.NewRuntimeSampler(reg, *sampleEvery)
	if *sampleEvery > 0 {
		sampler.Start()
	}

	// OTLP export: spans and metric snapshots ship to -otlp-endpoint; nil
	// exporter (no endpoint) keeps every hook inert.
	exporter, err := otlp.FromObs(cf.Config("phasefoldd"), reg, logger)
	if err != nil {
		fmt.Fprintln(os.Stderr, "phasefoldd:", err)
		os.Exit(obs.ExitUsage)
	}
	cfg.OTLP = exporter

	// The daemon already serves pprof and /metrics on its main address;
	// -pprof optionally mirrors that debug surface on a second listener
	// (ops networks often split the service port from the debug port).
	if cf.Pprof != "" {
		ln, err := net.Listen("tcp", cf.Pprof)
		if err != nil {
			fmt.Fprintln(os.Stderr, "phasefoldd: pprof:", err)
			os.Exit(obs.ExitUsage)
		}
		logger.Info("debug server listening", "addr", ln.Addr().String())
		go func() { _ = http.Serve(ln, obs.DebugMux(reg)) }()
	}

	report := obs.RunReport{Tool: "phasefoldd", Start: time.Now(),
		OptionsFingerprint: obs.Fingerprint(cfg.Analysis)}

	svc, err := service.New(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "phasefoldd:", err)
		os.Exit(obs.ExitUsage)
	}
	bound, err := svc.ListenAndServe(*addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "phasefoldd:", err)
		os.Exit(obs.ExitAnalysis)
	}
	fmt.Printf("phasefoldd listening on %s\n", bound)
	logger.Info("phasefoldd up", "addr", bound, "workers", cfg.Workers, "queue", cfg.QueueDepth)

	// Wait for SIGTERM/SIGINT, then drain: no new admissions, in-flight
	// jobs finish or are canceled at the deadline, manifest sealed, exit
	// per the shared contract (130 for a signal-initiated shutdown).
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	<-ctx.Done()
	stop()
	fmt.Fprintln(os.Stderr, "phasefoldd: signal received, draining")
	logger.Info("draining", "deadline", drainTimeout.String())

	dctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	drainErr := svc.Drain(dctx)
	cancel()

	// Drain already flushed the queued spans; Shutdown delivers the final
	// metrics snapshot and stops the worker. The manifest seals after the
	// flush, so it describes a run whose telemetry has left the process.
	sampler.Stop()
	if exporter != nil {
		sctx, scancel := context.WithTimeout(context.Background(), 5*time.Second)
		if err := exporter.Shutdown(sctx); err != nil {
			logger.Warn("otlp shutdown", "error", err)
		}
		scancel()
	}

	stats := svc.Snapshot()
	outcome := "drained"
	if drainErr != nil {
		outcome = "drained (deadline forced cancellation)"
	}
	report.Outcome = fmt.Sprintf("%s: %d admitted, %d rejected, %d cache hits, %d coalesced",
		outcome, stats.Admitted, stats.Rejected, stats.CacheHits, stats.Coalesced)
	seal(&report, reg, cf.Metrics, cf.Manifest)
	logger.Info("drained", "outcome", report.Outcome)

	// The shutdown was signal-initiated: ctx carries context.Canceled,
	// which ExitFor maps to 130.
	os.Exit(obs.ExitFor(ctx.Err()))
}

// seal persists the manifest and metrics files, when requested. Telemetry
// write failures are reported but never change the exit path.
func seal(report *obs.RunReport, reg *obs.Registry, metricsPath, manifestPath string) {
	wall := time.Since(report.Start)
	report.WallNS = wall.Nanoseconds()
	report.WallSec = wall.Seconds()
	if metricsPath != "" {
		if err := writeFileWith(metricsPath, reg.WritePrometheus); err != nil {
			fmt.Fprintln(os.Stderr, "phasefoldd: metrics:", err)
		} else {
			report.AddArtifact("metrics", metricsPath, fileSize(metricsPath))
		}
	}
	if manifestPath != "" {
		if err := writeFileWith(manifestPath, report.WriteJSON); err != nil {
			fmt.Fprintln(os.Stderr, "phasefoldd: manifest:", err)
		}
	}
}

func writeFileWith(path string, write func(w io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func fileSize(path string) int64 {
	fi, err := os.Stat(path)
	if err != nil {
		return 0
	}
	return fi.Size()
}
