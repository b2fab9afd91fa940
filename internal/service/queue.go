package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"phasefold/internal/core"
	"phasefold/internal/export"
	"phasefold/internal/obs"
	"phasefold/internal/runner"
	"phasefold/internal/trace"
)

// errQueueFull is the backpressure signal: the bounded queue is at
// capacity and the upload must be shed, not parked.
var errQueueFull = errors.New("service: job queue full")

// job is one admitted upload on its way to its result. The handler that
// created it (the flight leader) and every coalesced handler wait on the
// flight; finish publishes the result there. A job carries its streamed
// attempt when the upload was analyzed, pristine, while it arrived.
type job struct {
	key    cacheKey
	tenant string
	path   string // spooled upload
	text   bool
	size   int64
	jt     *jobTrace      // the lifecycle trace this job belongs to
	att    *streamAttempt // the pristine streamed analysis, or nil
}

// pool is the bounded job queue plus the analysis workers. Enqueue never
// blocks: a full queue is an immediate, typed rejection, which the handler
// turns into 503 + Retry-After. Workers pull jobs and run them under the
// shared runner.Supervisor.
type pool struct {
	s       *Service
	queue   chan *job
	sup     *runner.Supervisor
	workers int
	wg      sync.WaitGroup
	// depth counts queued + running jobs — the readiness signal.
	depth atomic.Int64

	mu     sync.Mutex
	closed bool
}

func newPool(s *Service, queueDepth, workers int, ropt runner.Options) *pool {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	p := &pool{
		s:       s,
		queue:   make(chan *job, queueDepth),
		sup:     runner.NewSupervisor(ropt),
		workers: workers,
	}
	p.wg.Add(workers)
	for i := 0; i < workers; i++ {
		go p.worker()
	}
	return p
}

// enqueue admits a job to the queue, or rejects it immediately when the
// queue is full or the intake is closed (draining). On success it returns
// the queue depth the job landed at — a span attribute worth keeping.
func (p *pool) enqueue(j *job) (int64, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return 0, errQueueFull
	}
	select {
	case p.queue <- j:
		d := p.depth.Add(1)
		p.s.reg.Gauge(obs.MetricQueueDepth, "Queued plus running analysis jobs.").
			Set(float64(d))
		return d, nil
	default:
		return 0, errQueueFull
	}
}

// closeIntake stops further enqueues and lets the workers drain the queue.
func (p *pool) closeIntake() {
	p.mu.Lock()
	defer p.mu.Unlock()
	if !p.closed {
		p.closed = true
		close(p.queue)
	}
}

// wait blocks until every worker has exited (intake must be closed first).
func (p *pool) wait() { p.wg.Wait() }

func (p *pool) worker() {
	defer p.wg.Done()
	for j := range p.queue {
		if p.s.testJobGate != nil {
			// Test hook: hold the worker here so tests can fill the queue
			// and observe backpressure deterministically.
			select {
			case <-p.s.testJobGate:
			case <-p.s.runCtx.Done():
			}
		}
		if q := j.jt.takeQueueSpan(); q != nil {
			q.End()
			p.s.reg.Histogram(obs.MetricTenantQueueAge, "Enqueue-to-dequeue queue wait, per tenant.",
				obs.DurationBuckets(), obs.Label{K: "tenant", V: j.tenant}).
				Observe(q.Duration().Seconds())
		}
		p.s.finish(j)
		p.depth.Add(-1)
		p.s.reg.Gauge(obs.MetricQueueDepth, "Queued plus running analysis jobs.").
			Set(float64(p.depth.Load()))
	}
}

// finish takes one job to its published result: a queued job on its
// worker, a pristine streamed job inline in its handler. The run stage
// decodes and analyzes the spooled upload under the supervisor; a
// streamed job skips it, its attempt having analyzed the upload under the
// stream stage. The export stage renders the result, and the publish stage
// records the outcome, caches and stores a deterministic result and
// settles the journal. Every waiter on the flight is answered, whatever
// happened.
func (s *Service) finish(j *job) *result {
	jt := j.jt
	jt.setState("running")
	if s.cfg.SlowJob > 0 {
		watchdog := time.AfterFunc(s.cfg.SlowJob, func() { s.jobOverThreshold(jt) })
		defer watchdog.Stop()
	}
	var (
		jr    runner.JobResult
		model *core.Model
		tr    *trace.Trace
	)
	if a := j.att; a != nil {
		jr, model, tr = a.jr, a.model, a.skel
	} else {
		jr, model, tr = s.run(j)
	}
	// A job canceled by drain keeps its spool and its journal entry: the
	// next start re-enqueues it and finishes the work this instance
	// accepted. Every other outcome is final — spool removed, journal
	// marked done.
	keepForRestart := jr.Outcome == runner.Canceled && s.wal.isPending(j.key)
	if !keepForRestart {
		os.Remove(j.path)
	}
	expSpan := jt.stage(stageExport)
	res := buildResult(j, jr, model, tr)
	expSpan.SetAttr("bytes", res.size)
	expSpan.End()
	pubSpan := jt.stage(stagePublish)
	s.recordOutcome(res.outcome)
	if cacheable(jr.Outcome) {
		s.cache.put(res)
		s.store.put(res)
	}
	if !keepForRestart {
		s.wal.done(j.key)
	}
	pubSpan.End()
	s.finishTrace(jt, res.outcome)
	s.fly.complete(j.key, res)
	return res
}

// run is the run stage of a job without a streamed attempt: the spooled
// upload is decoded and analyzed under the supervisor, whose job span and
// the analysis stage spans nest under the run span. A failed run returns
// no model: a partial one must not serve.
func (s *Service) run(j *job) (runner.JobResult, *core.Model, *trace.Trace) {
	runSpan := j.jt.stage(stageRun)
	ctx := s.jobContext(s.runCtx, j.jt, runSpan, "digest", shortDigest(j.key.Digest))
	var (
		model *core.Model
		tr    *trace.Trace
	)
	jr := s.pool.sup.Do(ctx, runner.Job{
		Name:  "sha256:" + shortDigest(j.key.Digest),
		Trace: j.jt.id,
		Run: func(ctx context.Context) (string, bool, error) {
			f, err := os.Open(j.path)
			if err != nil {
				return "", false, runner.Transient(err)
			}
			defer f.Close()
			var rep *trace.SalvageReport
			if j.text {
				tr, rep, err = trace.DecodeText(ctx, f, s.cfg.Decode)
			} else {
				tr, rep, err = trace.Decode(ctx, f, s.cfg.Decode)
			}
			if err != nil {
				return "", false, err
			}
			if model, err = core.Analyze(ctx, tr, s.cfg.Analysis); err != nil {
				return "", false, err
			}
			detail, degraded := summarize(model, rep)
			return detail, degraded, nil
		},
	})
	runSpan.SetAttr("outcome", jr.Outcome.String())
	runSpan.SetAttr("attempts", jr.Attempts)
	runSpan.End()
	if jr.Outcome.Bad() {
		model = nil
	}
	return jr, model, tr
}

// jobContext scopes ctx to one job's lifecycle: spans opened under it nest
// under span, and every log event it emits carries the job's trace and
// tenant plus logArgs.
func (s *Service) jobContext(ctx context.Context, jt *jobTrace, span *obs.Span, logArgs ...any) context.Context {
	ctx = obs.WithRecorder(ctx, obs.NewRecorder())
	ctx = obs.ContextWithSpan(ctx, span)
	return obs.WithLogger(ctx, s.log.With(append([]any{"trace", jt.id, "tenant", jt.tenant}, logArgs...)...))
}

// summarize renders what a finished analysis contributes to its run
// result — the detail line and whether it is degraded — the same way for
// the queued and the streamed path.
func summarize(model *core.Model, rep *trace.SalvageReport) (detail string, degraded bool) {
	degraded = model.Degraded()
	detail = fmt.Sprintf("%d clusters, %d bursts", model.NumClusters, model.NumBursts)
	if rep != nil && !rep.Complete() {
		degraded = true
		detail += ", salvaged"
	}
	if n := len(model.Diagnostics); n > 0 {
		detail += fmt.Sprintf(", %d diagnostics", n)
	}
	return detail, degraded
}

// shortDigest abbreviates a content digest for job names and log lines.
func shortDigest(d string) string {
	if len(d) > 12 {
		return d[:12]
	}
	return d
}

// reportDoc is the JSON result document POST /v1/traces answers with; it
// is rendered exactly once per analysis, so cache hits are byte-identical.
type reportDoc struct {
	Digest      string            `json:"digest"`
	TraceID     string            `json:"trace_id,omitempty"`
	Outcome     string            `json:"outcome"`
	Degraded    bool              `json:"degraded"`
	Detail      string            `json:"detail,omitempty"`
	Error       string            `json:"error,omitempty"`
	Attempts    int               `json:"attempts"`
	App         string            `json:"app,omitempty"`
	Clusters    int               `json:"clusters,omitempty"`
	Bursts      int               `json:"bursts,omitempty"`
	Diagnostics []string          `json:"diagnostics,omitempty"`
	Artifacts   map[string]string `json:"artifacts,omitempty"`
}

// Artifact names under /v1/results/{digest}/.
const (
	artifactPerfetto     = "perfetto.json"
	artifactFlame        = "flame.folded"
	artifactSnapshot     = "snapshot.prom"
	artifactSnapshotJSON = "snapshot.json"
)

// buildResult renders the finished job into its servable form: the JSON
// report plus, when the run produced a model, the model's summary and
// every export artifact rendered to bytes from its view of tr. Render
// errors degrade to a missing artifact, never a crash.
func buildResult(j *job, jr runner.JobResult, model *core.Model, tr *trace.Trace) *result {
	doc := reportDoc{
		Digest:   j.key.Digest,
		Outcome:  jr.Outcome.String(),
		Degraded: jr.Outcome == runner.Degraded,
		Detail:   jr.Detail,
		Attempts: jr.Attempts,
		TraceID:  j.jt.id,
	}
	if jr.Err != nil {
		doc.Error = jr.Err.Error()
	}
	res := &result{
		key:     j.key,
		outcome: jr.Outcome.String(),
		code:    statusFor(jr.Outcome, jr.Err),
		trace:   doc.TraceID,
	}
	if model != nil {
		doc.App, doc.Clusters, doc.Bursts = model.App, model.NumClusters, model.NumBursts
		for _, d := range model.Diagnostics {
			doc.Diagnostics = append(doc.Diagnostics, d.String())
		}
		res.artifacts = renderArtifacts(model.Export(tr))
		doc.Artifacts = make(map[string]string, len(res.artifacts))
		for name := range res.artifacts {
			doc.Artifacts[name] = "/v1/results/" + j.key.Digest + "/" + name
		}
	}
	b, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		b = []byte(fmt.Sprintf(`{"digest":%q,"outcome":%q}`, j.key.Digest, doc.Outcome))
	}
	res.report = append(b, '\n')
	res.weigh()
	return res
}

// renderArtifacts renders every export format from the view. The export
// layer guarantees deterministic byte-identical output for a given view.
// Both metric snapshots are written from one registry.
func renderArtifacts(view *core.ExportView) map[string][]byte {
	arts := make(map[string][]byte, 4)
	render := func(name string, write func(*bytes.Buffer) error) {
		var buf bytes.Buffer
		if err := write(&buf); err == nil {
			arts[name] = buf.Bytes()
		}
	}
	snap := export.Snapshot(view)
	render(artifactPerfetto, func(b *bytes.Buffer) error { return export.WritePerfetto(b, view) })
	render(artifactFlame, func(b *bytes.Buffer) error { return export.WriteFlamegraph(b, view, "") })
	render(artifactSnapshot, func(b *bytes.Buffer) error { return snap.WritePrometheus(b) })
	render(artifactSnapshotJSON, func(b *bytes.Buffer) error { return snap.WriteJSON(b) })
	return arts
}
