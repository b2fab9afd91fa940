package service

import (
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"runtime/pprof"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"phasefold/internal/export"
	"phasefold/internal/obs"
	"phasefold/internal/obs/otlp"
	"phasefold/internal/stream"
)

// Job-lifecycle tracing: every accepted upload gets a trace ID (the
// client's X-Request-Id / traceparent when it sent one) and one span tree
// that follows the job through admission → spool → cache → queue → run →
// export → publish. The tree answers "where did this request spend its
// time"; the per-stage histograms and per-tenant SLO metrics answer the
// same question for the fleet; the ring buffer behind GET /v1/jobs keeps
// the recent trees browsable; and the trace ID persisted in the journal
// and store meta lets a crash-interrupted job's recovery spans attach to
// the original trace.

// Lifecycle stage span names. DESIGN.md maps each to its metric; keep the
// two in sync.
const (
	stageAdmission = "admission" // draining check + tenant token bucket
	stageSpool     = "spool"     // body → temp file while SHA-256 hashing
	stageStream    = "stream"    // incremental analysis racing the spool
	stageCache     = "cache"     // memory LRU + durable-store read-through
	stageCoalesce  = "coalesce"  // waiting on an identical in-flight job
	stageQueue     = "queue"     // enqueue → worker pickup
	stageRun       = "run"       // supervised decode + analysis
	stageExport    = "export"    // result document + artifact rendering
	stagePublish   = "publish"   // cache/store/journal publication
	stageIntake    = "intake"    // reconstructed pre-crash acceptance
	stageRecovery  = "recovery"  // journal replay → re-enqueue
	stageSettle    = "settle"    // recovery found the result already stored
)

// jobTrace is one request lifecycle: the trace ID, the span tree under
// construction, and the summary the jobs API serves. Handler goroutines,
// the worker, and API readers touch it concurrently; everything mutable
// sits behind mu (the spans have their own locks).
type jobTrace struct {
	id        string
	tenant    string
	accepted  time.Time
	root      *obs.Span
	recovered bool // rebuilt from the journal after a crash

	mu          sync.Mutex
	digest      string
	state       string // accepted → queued → running → terminal outcome
	cache       string // hit | miss | coalesced
	size        int64
	end         time.Time
	slow        bool
	queueSpan   *obs.Span
	profileStop func()
}

func newJobTrace(id, tenant string, accepted time.Time) *jobTrace {
	jt := &jobTrace{
		id:       id,
		tenant:   tenant,
		accepted: accepted,
		state:    "accepted",
		root:     obs.NewSpanAt("job", accepted),
	}
	jt.root.SetAttr("trace", id)
	jt.root.SetAttr("tenant", tenant)
	return jt
}

// stageAt opens a lifecycle stage span under the root, started at t.
func (jt *jobTrace) stageAt(name string, t time.Time) *obs.Span {
	if jt == nil {
		return nil
	}
	s := obs.NewSpanAt(name, t)
	jt.root.Adopt(s)
	return s
}

// stage opens a lifecycle stage span starting now.
func (jt *jobTrace) stage(name string) *obs.Span {
	if jt == nil {
		return nil
	}
	return jt.stageAt(name, time.Now())
}

func (jt *jobTrace) setState(state string) {
	if jt == nil {
		return
	}
	jt.mu.Lock()
	jt.state = state
	jt.mu.Unlock()
}

func (jt *jobTrace) setDigest(digest string, size int64) {
	if jt == nil {
		return
	}
	jt.mu.Lock()
	jt.digest = digest
	jt.size = size
	jt.mu.Unlock()
	jt.root.SetAttr("digest", shortDigest(digest))
	jt.root.SetAttr("bytes", size)
}

func (jt *jobTrace) setCache(disposition string) {
	if jt == nil {
		return
	}
	jt.mu.Lock()
	jt.cache = disposition
	jt.mu.Unlock()
	jt.root.SetAttr("cache", disposition)
}

// holdQueueSpan parks the open queue-wait span so the worker that dequeues
// the job (a different goroutine) can close it.
func (jt *jobTrace) holdQueueSpan(s *obs.Span) {
	if jt == nil {
		return
	}
	jt.mu.Lock()
	jt.queueSpan = s
	jt.mu.Unlock()
}

func (jt *jobTrace) takeQueueSpan() *obs.Span {
	if jt == nil {
		return nil
	}
	jt.mu.Lock()
	defer jt.mu.Unlock()
	s := jt.queueSpan
	jt.queueSpan = nil
	return s
}

// jobSummary is one row of GET /v1/jobs.
type jobSummary struct {
	ID          string    `json:"id"`
	Tenant      string    `json:"tenant"`
	Digest      string    `json:"digest,omitempty"`
	State       string    `json:"state"`
	Cache       string    `json:"cache,omitempty"`
	Bytes       int64     `json:"bytes,omitempty"`
	Accepted    time.Time `json:"accepted"`
	DurationSec float64   `json:"duration_sec"`
	Slow        bool      `json:"slow,omitempty"`
	Recovered   bool      `json:"recovered,omitempty"`
}

func (jt *jobTrace) summary() jobSummary {
	jt.mu.Lock()
	defer jt.mu.Unlock()
	dur := time.Since(jt.accepted)
	if !jt.end.IsZero() {
		dur = jt.end.Sub(jt.accepted)
	}
	return jobSummary{
		ID:          jt.id,
		Tenant:      jt.tenant,
		Digest:      jt.digest,
		State:       jt.state,
		Cache:       jt.cache,
		Bytes:       jt.size,
		Accepted:    jt.accepted,
		DurationSec: dur.Seconds(),
		Slow:        jt.slow,
		Recovered:   jt.recovered,
	}
}

// jobDetail is GET /v1/jobs/{id}: the summary plus the full span tree.
type jobDetail struct {
	jobSummary
	Spans obs.StageReport `json:"spans"`
}

func (jt *jobTrace) detail() jobDetail {
	return jobDetail{jobSummary: jt.summary(), Spans: obs.SpanReport(jt.root)}
}

// jobLog is the fixed-capacity ring of recent job traces behind the jobs
// API: running jobs are visible the moment they are admitted, finished
// ones stay browsable until capacity pushes them out.
type jobLog struct {
	mu   sync.Mutex
	buf  []*jobTrace
	next int
	n    int
	byID map[string]*jobTrace
}

func newJobLog(capacity int) *jobLog {
	if capacity < 1 {
		capacity = 1
	}
	return &jobLog{buf: make([]*jobTrace, capacity), byID: make(map[string]*jobTrace)}
}

func (l *jobLog) add(jt *jobTrace) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if old := l.buf[l.next]; old != nil && l.byID[old.id] == old {
		delete(l.byID, old.id)
	}
	l.buf[l.next] = jt
	l.next = (l.next + 1) % len(l.buf)
	if l.n < len(l.buf) {
		l.n++
	}
	// Latest wins the index when a client reuses an ID; the older trace
	// stays in the ring until evicted.
	l.byID[jt.id] = jt
}

func (l *jobLog) get(id string) (*jobTrace, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	jt, ok := l.byID[id]
	return jt, ok
}

// recent returns up to limit traces, newest first, filtered by tenant and
// state/outcome when non-empty.
func (l *jobLog) recent(limit int, tenant, state string) []*jobTrace {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]*jobTrace, 0, min(limit, l.n))
	for i := 0; i < l.n && len(out) < limit; i++ {
		jt := l.buf[((l.next-1-i)%len(l.buf)+len(l.buf))%len(l.buf)]
		if jt == nil {
			continue
		}
		if tenant != "" && jt.tenant != tenant {
			continue
		}
		if state != "" {
			jt.mu.Lock()
			match := jt.state == state
			jt.mu.Unlock()
			if !match {
				continue
			}
		}
		out = append(out, jt)
	}
	return out
}

// ring is a bounded sample buffer feeding the dashboard sparklines.
type ring struct {
	mu   sync.Mutex
	buf  []float64
	next int
	n    int
}

func newRing(capacity int) *ring { return &ring{buf: make([]float64, capacity)} }

func (r *ring) add(v float64) {
	r.mu.Lock()
	r.buf[r.next] = v
	r.next = (r.next + 1) % len(r.buf)
	if r.n < len(r.buf) {
		r.n++
	}
	r.mu.Unlock()
}

// values returns the samples oldest-first.
func (r *ring) values() []float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]float64, 0, r.n)
	for i := 0; i < r.n; i++ {
		out = append(out, r.buf[((r.next-r.n+i)%len(r.buf)+len(r.buf))%len(r.buf)])
	}
	return out
}

// dashRingLen bounds the dashboard sample rings — enough for a sparkline,
// small enough to rebuild on every publish.
const dashRingLen = 120

// stageSample feeds one stage duration into its dashboard ring.
func (s *Service) stageSample(stage string, seconds float64) {
	s.ringsMu.Lock()
	r, ok := s.stageRings[stage]
	if !ok {
		r = newRing(dashRingLen)
		s.stageRings[stage] = r
	}
	s.ringsMu.Unlock()
	r.add(seconds)
}

// finishTrace seals a job lifecycle: stamps the outcome, ends the root
// span, publishes the per-stage histograms and per-tenant SLO metrics,
// emits the slow-job event when the end-to-end time crossed the
// threshold, and pushes a dashboard update.
func (s *Service) finishTrace(jt *jobTrace, outcome string) {
	if jt == nil {
		return
	}
	now := time.Now()
	jt.mu.Lock()
	if !jt.end.IsZero() {
		jt.mu.Unlock()
		return
	}
	jt.state = outcome
	jt.end = now
	stopProfile := jt.profileStop
	jt.profileStop = nil
	digest := jt.digest
	jt.mu.Unlock()
	if stopProfile != nil {
		stopProfile()
	}
	jt.root.SetAttr("outcome", outcome)
	jt.root.EndAt(now)

	e2e := jt.root.Duration()
	for _, c := range jt.root.Children() {
		d := c.Duration().Seconds()
		s.reg.Histogram(obs.MetricJobStageSeconds, "Job lifecycle stage wall time in seconds.",
			obs.DurationBuckets(),
			obs.Label{K: "stage", V: c.Name()},
			obs.Label{K: "outcome", V: outcome}).Observe(d)
		s.stageSample(c.Name(), d)
	}
	s.reg.Histogram(obs.MetricJobE2ESeconds, "Accept-to-publish end-to-end time in seconds.",
		obs.DurationBuckets(), obs.Label{K: "outcome", V: outcome}).Observe(e2e.Seconds())
	s.reg.Counter(obs.MetricTenantJobs, "Finished job lifecycles, by tenant and outcome.",
		obs.Label{K: "tenant", V: jt.tenant}, obs.Label{K: "outcome", V: outcome}).Inc()
	s.reg.Histogram(obs.MetricTenantE2E, "Per-tenant end-to-end time in seconds.",
		obs.DurationBuckets(), obs.Label{K: "tenant", V: jt.tenant}).Observe(e2e.Seconds())

	if s.cfg.SlowJob > 0 && e2e >= s.cfg.SlowJob {
		jt.mu.Lock()
		jt.slow = true
		jt.mu.Unlock()
		s.reg.Counter(obs.MetricSlowJobs, "Jobs whose end-to-end time crossed the slow-job threshold.").Inc()
		spans, _ := json.Marshal(obs.SpanReport(jt.root))
		s.log.Warn("slow job",
			"trace", jt.id, "tenant", jt.tenant, "digest", shortDigest(digest),
			"outcome", outcome, "e2e", e2e.String(),
			"threshold", s.cfg.SlowJob.String(), "spans", string(spans))
	}
	// The tree is sealed (root ended, every stage closed): ship it. The
	// exporter keeps the job's trace ID, so an external backend shows the
	// same admission→publish tree as GET /v1/jobs/{id}.
	s.cfg.OTLP.ExportSpanTree(jt.id, jt.root)
	s.publishDash()
}

// profileActive serializes slow-job CPU captures: runtime/pprof supports
// one CPU profile per process, and one capture at a time is also the
// useful behavior — a storm of slow jobs should not fight over it.
var profileActive atomic.Bool

// slowJobProfileMax caps a capture so a wedged job cannot record forever.
const slowJobProfileMax = 30 * time.Second

// jobOverThreshold fires from the watchdog timer while a job is still
// running past the slow-job threshold: it marks the trace slow, logs, and
// (when enabled) starts a CPU profile that stops when the job finishes.
func (s *Service) jobOverThreshold(jt *jobTrace) {
	jt.mu.Lock()
	running := jt.end.IsZero()
	jt.slow = jt.slow || running
	digest := jt.digest
	jt.mu.Unlock()
	if !running {
		return
	}
	s.log.Warn("job over slow-job threshold, still running",
		"trace", jt.id, "tenant", jt.tenant, "digest", shortDigest(digest),
		"threshold", s.cfg.SlowJob.String())
	if !s.cfg.SlowJobProfile || !profileActive.CompareAndSwap(false, true) {
		return
	}
	path := filepath.Join(s.profileDir(), "slowjob-"+jt.id+".pprof")
	f, err := os.Create(path)
	if err != nil {
		profileActive.Store(false)
		return
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		os.Remove(path)
		profileActive.Store(false)
		return
	}
	s.log.Info("slow-job CPU profile started", "trace", jt.id, "path", path)
	var once sync.Once
	stop := func() {
		once.Do(func() {
			pprof.StopCPUProfile()
			f.Close()
			profileActive.Store(false)
		})
	}
	safety := time.AfterFunc(slowJobProfileMax, stop)
	jt.mu.Lock()
	if jt.end.IsZero() {
		jt.profileStop = func() { safety.Stop(); stop() }
		jt.mu.Unlock()
		return
	}
	jt.mu.Unlock()
	// The job finished between the timer firing and here; nothing to record.
	safety.Stop()
	stop()
}

// profileDir is where slow-job CPU profiles land: the configured dir, else
// the state dir, else the system temp dir.
func (s *Service) profileDir() string {
	if s.cfg.ProfileDir != "" {
		return s.cfg.ProfileDir
	}
	if s.cfg.StateDir != "" {
		return s.cfg.StateDir
	}
	return os.TempDir()
}

// observeTTFB records the request-arrival-to-first-result-byte SLO sample.
func (s *Service) observeTTFB(tenant string, start time.Time) {
	s.reg.Histogram(obs.MetricTenantTTFB, "Request arrival to first result byte, per tenant.",
		obs.DurationBuckets(), obs.Label{K: "tenant", V: tenant}).
		Observe(time.Since(start).Seconds())
}

// handleJobs serves the recent-jobs ring, newest first, with optional
// ?tenant= / ?outcome= filters and a ?limit= cap.
func (s *Service) handleJobs(w http.ResponseWriter, r *http.Request) {
	limit := 100
	if v := r.URL.Query().Get("limit"); v != "" {
		if n, err := strconv.Atoi(v); err == nil && n > 0 {
			limit = n
		}
	}
	list := s.jobs.recent(limit, r.URL.Query().Get("tenant"), r.URL.Query().Get("outcome"))
	out := struct {
		Jobs []jobSummary `json:"jobs"`
	}{Jobs: make([]jobSummary, 0, len(list))}
	for _, jt := range list {
		out.Jobs = append(out.Jobs, jt.summary())
	}
	w.Header().Set("Content-Type", "application/json")
	b, _ := json.MarshalIndent(out, "", "  ")
	w.Write(append(b, '\n'))
}

// handleJob serves one job's full span tree by trace ID.
func (s *Service) handleJob(w http.ResponseWriter, r *http.Request) {
	jt, ok := s.jobs.get(r.PathValue("id"))
	if !ok {
		http.Error(w, "unknown job id (finished long ago, or never seen)", http.StatusNotFound)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	b, _ := json.MarshalIndent(jt.detail(), "", "  ")
	w.Write(append(b, '\n'))
}

// dashStage is one row of the dashboard's per-stage latency table.
type dashStage struct {
	Name   string    `json:"name"`
	P50    float64   `json:"p50"`
	P95    float64   `json:"p95"`
	Recent []float64 `json:"recent"`
}

// dashSnapshot is the JSON document the dashboard page renders; every
// publish replaces the previous one (SSE latest-only).
type dashSnapshot struct {
	Version        string           `json:"version"`
	UptimeSec      float64          `json:"uptime_seconds"`
	Draining       bool             `json:"draining"`
	Persistence    string           `json:"persistence"`
	PersistEntries int              `json:"persist_entries"`
	PersistBytes   int64            `json:"persist_bytes"`
	JournalPending int              `json:"journal_pending"`
	QueueDepth     int64            `json:"queue_depth"`
	QueueCap       int              `json:"queue_cap"`
	Workers        int              `json:"workers"`
	QueueHistory   []float64        `json:"queue_history"`
	E2EP50         float64          `json:"e2e_p50"`
	E2EP95         float64          `json:"e2e_p95"`
	Outcomes       map[string]int64 `json:"outcomes,omitempty"`
	OTLP           *otlp.Stats      `json:"otlp,omitempty"`
	// Phases is the phases-forming-live view of the streamed upload in
	// flight, when there is one.
	Phases *stream.Snapshot `json:"phases,omitempty"`
	Stages []dashStage      `json:"stages"`
	Jobs   []jobSummary     `json:"jobs"`
}

// dashboardInterval paces the background publisher; job completions also
// publish immediately, so the ticker only covers idle-state drift (queue
// history, uptime).
const dashboardInterval = time.Second

// startDashboard wires the live ops dashboard and its publisher goroutine.
func (s *Service) startDashboard() {
	s.dash = export.NewDashboard()
	s.dashStop = make(chan struct{})
	s.dashDone = make(chan struct{})
	go func() {
		defer close(s.dashDone)
		t := time.NewTicker(dashboardInterval)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				s.depthRing.add(float64(s.pool.depth.Load()))
				s.publishDash()
			case <-s.dashStop:
				return
			}
		}
	}()
}

// stopDashboard ends the publisher and pushes the terminal SSE event.
func (s *Service) stopDashboard() {
	if s.dashStop == nil {
		return
	}
	close(s.dashStop)
	<-s.dashDone
	s.dash.Close()
}

// publishDash pushes a fresh snapshot to every connected dashboard.
func (s *Service) publishDash() {
	if s.dash == nil {
		return
	}
	st := s.Snapshot()
	snap := dashSnapshot{
		Version:        obs.Version(),
		UptimeSec:      st.UptimeSec,
		Draining:       st.Draining,
		Persistence:    st.Persistence,
		PersistEntries: st.PersistEntries,
		PersistBytes:   st.PersistBytes,
		JournalPending: st.JournalPending,
		QueueDepth:     st.QueueDepth,
		QueueCap:       st.QueueCap,
		Workers:        st.Workers,
		QueueHistory:   s.depthRing.values(),
		Outcomes:       st.Outcomes,
		OTLP:           st.OTLP,
		Phases:         s.livePhases.Load(),
	}
	okE2E := s.reg.Histogram(obs.MetricJobE2ESeconds, "Accept-to-publish end-to-end time in seconds.",
		obs.DurationBuckets(), obs.Label{K: "outcome", V: "ok"})
	snap.E2EP50, snap.E2EP95 = okE2E.Quantile(0.5), okE2E.Quantile(0.95)

	s.ringsMu.Lock()
	names := make([]string, 0, len(s.stageRings))
	for name := range s.stageRings {
		names = append(names, name)
	}
	s.ringsMu.Unlock()
	sort.Strings(names)
	for _, name := range names {
		s.ringsMu.Lock()
		r := s.stageRings[name]
		s.ringsMu.Unlock()
		vals := r.values()
		snap.Stages = append(snap.Stages, dashStage{
			Name:   name,
			P50:    quantileOf(vals, 0.5),
			P95:    quantileOf(vals, 0.95),
			Recent: vals,
		})
	}
	for _, jt := range s.jobs.recent(20, "", "") {
		snap.Jobs = append(snap.Jobs, jt.summary())
	}
	s.dash.Publish(snap)
}

// quantileOf is the exact sample quantile of a small slice (the dashboard
// rings); the registry histograms keep the long-run estimates.
func quantileOf(vals []float64, q float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	sorted := make([]float64, len(vals))
	copy(sorted, vals)
	sort.Float64s(sorted)
	i := int(q * float64(len(sorted)-1))
	return sorted[i]
}
