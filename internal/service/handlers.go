package service

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"strconv"
	"time"

	"phasefold/internal/obs"
	"phasefold/internal/obs/otlp"
)

// Handler returns the daemon's routing table.
func (s *Service) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/traces", s.instrument("analyze", s.handleAnalyze))
	mux.HandleFunc("GET /v1/results/{digest}", s.instrument("result", s.handleResult))
	mux.HandleFunc("GET /v1/results/{digest}/{artifact}", s.instrument("artifact", s.handleArtifact))
	mux.HandleFunc("GET /v1/jobs", s.instrument("jobs", s.handleJobs))
	mux.HandleFunc("GET /v1/jobs/{id}", s.instrument("job", s.handleJob))
	mux.HandleFunc("GET /v1/stats", s.instrument("stats", s.handleStats))
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /readyz", s.handleReadyz)
	if s.dash != nil {
		mux.Handle("/dash/", http.StripPrefix("/dash", s.dash.Handler()))
		mux.Handle("GET /dash", http.RedirectHandler("/dash/", http.StatusMovedPermanently))
	}
	if s.cfg.Debug != nil {
		mux.Handle("/debug/", s.cfg.Debug)
		mux.Handle("/metrics", s.cfg.Debug)
	}
	return mux
}

// reqIDKey carries the request's trace ID through the request context.
type reqIDKey struct{}

// reqID returns the trace ID instrument attached, or "".
func reqID(ctx context.Context) string {
	id, _ := ctx.Value(reqIDKey{}).(string)
	return id
}

// statusWriter captures the response code for the request counter.
type statusWriter struct {
	http.ResponseWriter
	code int
}

func (w *statusWriter) WriteHeader(code int) {
	w.code = code
	w.ResponseWriter.WriteHeader(code)
}

// instrument wraps a handler with the per-route request counter and the
// request-ID contract: every /v1/* reply — success, 4xx, 5xx, cache hit —
// carries X-Request-Id (the client's, when it sent a usable one) and a
// W3C traceparent whose trace-id is the request ID's canonical wire form,
// so client logs, server traces, and an external tracing backend all join
// on one key.
func (s *Service) instrument(route string, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		rid := obs.RequestTraceID(r.Header)
		w.Header().Set("X-Request-Id", rid)
		w.Header().Set("Traceparent", obs.Traceparent(rid, ""))
		r = r.WithContext(context.WithValue(r.Context(), reqIDKey{}, rid))
		sw := &statusWriter{ResponseWriter: w, code: http.StatusOK}
		h(sw, r)
		s.reg.Counter(obs.MetricHTTPRequests, "HTTP requests, by route and status code.",
			obs.Label{K: "route", V: route},
			obs.Label{K: "code", V: strconv.Itoa(sw.code)}).Inc()
	}
}

// reject answers an error as JSON, with Retry-After when the condition is
// temporary, and tallies the admission reject counter.
func (s *Service) reject(w http.ResponseWriter, code int, reason string, retryAfter int, msg string) {
	s.nRejected.Add(1)
	s.reg.Counter(obs.MetricAdmitRejected, "Uploads rejected before analysis, by reason.",
		obs.Label{K: "reason", V: reason}).Inc()
	if retryAfter > 0 {
		w.Header().Set("Retry-After", strconv.Itoa(retryAfter))
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	fmt.Fprintf(w, "{\"error\":%q,\"reason\":%q}\n", msg, reason)
}

// tenantOf extracts the caller's tenant id; anonymous callers share one
// bucket (they also share one quota — identify yourself for your own).
func tenantOf(r *http.Request) string {
	if t := r.Header.Get("X-Tenant"); t != "" {
		if len(t) > 128 {
			t = t[:128]
		}
		return t
	}
	return "anonymous"
}

// handleAnalyze is the upload path: admission → spool+hash → cache →
// single-flight → queue → wait → serve. The accept loop never blocks on a
// full queue; each rejection point answers with the right status and a
// Retry-After hint.
func (s *Service) handleAnalyze(w http.ResponseWriter, r *http.Request) {
	arrived := time.Now()
	tenant := tenantOf(r)
	if s.draining.Load() {
		s.reject(w, http.StatusServiceUnavailable, "draining", 5, "service is draining")
		return
	}
	if ok, retry := s.adm.admit(tenant); !ok {
		s.reject(w, http.StatusTooManyRequests, "quota",
			retryAfterSeconds(retry), "tenant quota exhausted")
		return
	}
	s.nAdmitted.Add(1)

	// Admission passed: from here the request has a lifecycle trace. The
	// root starts at arrival so the admission span's duration is honest.
	jt := newJobTrace(reqID(r.Context()), tenant, arrived)
	// An inbound traceparent makes this job part of the caller's
	// distributed trace: its parent-id becomes the exported root's parent.
	if ps := obs.ParentSpanID(r.Header); ps != "" {
		jt.root.SetAttr(otlp.AttrParentSpan, ps)
	}
	jt.stageAt(stageAdmission, arrived).End()
	s.jobs.add(jt)

	text := r.URL.Query().Get("format") == "text"
	body := http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	spSpan := jt.stage(stageSpool)
	spool, err := os.CreateTemp(s.spoolDir(), spoolPrefix+"*")
	if err != nil {
		spSpan.End()
		s.finishTrace(jt, "rejected")
		s.reject(w, http.StatusInternalServerError, "spool", 0, "cannot spool upload: "+err.Error())
		return
	}
	spoolPath := spool.Name()
	// The spool file is owned by the job once enqueued; every earlier exit
	// removes it here.
	removeSpool := func() { os.Remove(spoolPath) }

	hash := sha256.New()
	sink := io.Writer(io.MultiWriter(hash, spool))
	// A chunked binary body can be analyzed while it arrives: tee the spool
	// copy into an incremental session (the job's `stream` span runs
	// concurrently with `spool`). The tee never gates the upload — the spool
	// stays authoritative and complete for the fallback path.
	var att *streamAttempt
	if !text && r.ContentLength < 0 {
		var tee io.Writer
		att, tee = s.beginStreamAttempt(jt)
		sink = io.MultiWriter(hash, spool, tee)
	}
	n, err := io.Copy(sink, body)
	closeErr := spool.Close()
	spSpan.SetAttr("bytes", n)
	spSpan.End()
	if att != nil {
		att.seal(err)
	}
	if err != nil {
		removeSpool()
		s.finishTrace(jt, "rejected")
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			s.reject(w, http.StatusRequestEntityTooLarge, "body",
				0, fmt.Sprintf("body exceeds %d bytes", s.cfg.MaxBodyBytes))
			return
		}
		s.reject(w, http.StatusBadRequest, "body", 0, "reading body: "+err.Error())
		return
	}
	if closeErr != nil {
		removeSpool()
		s.finishTrace(jt, "rejected")
		s.reject(w, http.StatusInternalServerError, "spool", 0, "spooling upload: "+closeErr.Error())
		return
	}
	if n == 0 {
		removeSpool()
		s.finishTrace(jt, "rejected")
		s.reject(w, http.StatusBadRequest, "body", 0, "empty body")
		return
	}
	s.reg.Counter(obs.MetricUploadBytes, "Accepted request-body bytes.").Add(n)

	key := cacheKey{Digest: hex.EncodeToString(hash.Sum(nil)), Fingerprint: s.fingerprint(text)}
	jt.setDigest(key.Digest, n)
	cacheSpan := jt.stage(stageCache)
	if res, layer := s.lookup(key); res != nil {
		cacheSpan.SetAttr("result", layer)
		cacheSpan.End()
		removeSpool()
		s.nHits.Add(1)
		s.reg.Counter(obs.MetricCacheEvents, "Result-cache events.",
			obs.Label{K: "event", V: "hit"}).Inc()
		jt.setCache("hit")
		// The lifecycle finishes with the cached result's outcome; the hit
		// itself is already recorded as the cache disposition.
		s.finishTrace(jt, res.outcome)
		s.serveResult(w, res, "hit")
		s.observeTTFB(tenant, arrived)
		return
	}
	cacheSpan.SetAttr("result", "miss")
	cacheSpan.End()

	fl, leader := s.fly.join(key)
	if !leader {
		// An identical upload is already in flight: coalesce onto it. This
		// request's trace ends when the leader's job does; the leader's
		// trace owns the run itself.
		removeSpool()
		s.nCoalesced.Add(1)
		s.reg.Counter(obs.MetricCacheEvents, "Result-cache events.",
			obs.Label{K: "event", V: "coalesced"}).Inc()
		jt.setCache("coalesced")
		co := jt.stage(stageCoalesce)
		s.awaitFlight(w, r, fl, "coalesced", jt, co, tenant, arrived)
		return
	}

	jt.setCache("miss")
	j := &job{key: key, tenant: tenant, path: spoolPath, text: text, size: n, jt: jt}
	if att != nil {
		disposition := "fallback"
		if att.pristine() {
			disposition = "pristine"
			j.att = att
		}
		s.reg.Counter(obs.MetricStreamUploads, "Chunked uploads analyzed while arriving, by result.",
			obs.Label{K: "result", V: disposition}).Inc()
	}
	if j.att != nil {
		// The streamed analysis finished with a pristine result while the
		// body was arriving: finish the job here, skipping the queue. No
		// journal entry is needed — the work is already done, exactly like
		// a cache hit.
		s.nStreamed.Add(1)
		s.countMiss()
		res := s.finish(j)
		s.serveResult(w, res, "stream")
		s.observeTTFB(tenant, arrived)
		return
	}
	// Journal the acceptance (fsynced) before the job can run: a crash from
	// here on is recoverable — the spool file plus this record re-create
	// the job (under the same trace ID) at the next start.
	s.wal.accept(j)
	qSpan := jt.stage(stageQueue)
	// Parked before the enqueue: a worker may dequeue and finish the job
	// before enqueue returns.
	jt.holdQueueSpan(qSpan)
	jt.setState("queued")
	depth, err := s.pool.enqueue(j)
	if err != nil {
		qSpan.SetAttr("result", "rejected")
		qSpan.End()
		removeSpool()
		s.wal.done(key) // never ran; the spool is gone
		s.fly.abort(key)
		s.finishTrace(jt, "rejected")
		s.reject(w, http.StatusServiceUnavailable, "queue_full", 2, "analysis queue is full")
		return
	}
	qSpan.SetAttr("depth", depth)
	s.countMiss()
	s.awaitFlight(w, r, fl, "miss", jt, nil, tenant, arrived)
}

// awaitFlight waits for the in-flight analysis and serves its result. A
// client that disconnects first stops waiting, but the job keeps running —
// its result still lands in the cache for the retry. For a coalesced
// request, coSpan is its waiting span and jt its own trace (the worker
// owns the leader's); both are nil-safe.
func (s *Service) awaitFlight(w http.ResponseWriter, r *http.Request, fl *flight,
	cacheState string, jt *jobTrace, coSpan *obs.Span, tenant string, arrived time.Time) {
	select {
	case <-fl.done:
	case <-r.Context().Done():
		// The client hung up or timed out; the job keeps running. Counted
		// so operators can tell retry storms from server faults. Only a
		// coalesced trace ends here — the leader's belongs to the job.
		s.nAbandoned.Add(1)
		s.reg.Counter(obs.MetricHTTPEvents, "HTTP request-lifecycle events.",
			obs.Label{K: "event", V: "abandoned"}).Inc()
		if coSpan != nil {
			coSpan.SetAttr("result", "abandoned")
			coSpan.End()
			s.finishTrace(jt, "abandoned")
		}
		return
	}
	if coSpan != nil {
		coSpan.End()
	}
	if fl.res == nil {
		// The leader could not enqueue (queue full raced us here).
		if coSpan != nil {
			s.finishTrace(jt, "rejected")
		}
		s.reject(w, http.StatusServiceUnavailable, "queue_full", 2, "analysis queue is full")
		return
	}
	if coSpan != nil {
		s.finishTrace(jt, fl.res.outcome)
	}
	s.serveResult(w, fl.res, cacheState)
	s.observeTTFB(tenant, arrived)
}

// serveResult writes a finished result: the stored JSON document, its
// status, and the cache disposition header.
func (s *Service) serveResult(w http.ResponseWriter, res *result, cacheState string) {
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("X-Cache", cacheState)
	w.Header().Set("X-Trace-Digest", res.key.Digest)
	if res.code == http.StatusServiceUnavailable {
		w.Header().Set("Retry-After", "5")
	}
	w.WriteHeader(res.code)
	w.Write(res.report)
}

// countMiss tallies an upload that needs an analysis.
func (s *Service) countMiss() {
	s.nMisses.Add(1)
	s.reg.Counter(obs.MetricCacheEvents, "Result-cache events.",
		obs.Label{K: "event", V: "miss"}).Inc()
}

// lookup finds a finished result in the memory LRU, then in the durable
// store, promoting a store hit into the LRU: the read-through that keeps
// hits byte-identical whether they come from RAM or disk. layer names
// where it was found, "hit" or "store_hit".
func (s *Service) lookup(k cacheKey) (res *result, layer string) {
	if res, ok := s.cache.get(k); ok {
		return res, "hit"
	}
	if s.store == nil {
		return nil, ""
	}
	if res = s.store.get(k); res != nil {
		s.cache.put(res)
		return res, "store_hit"
	}
	return nil, ""
}

// lookupDigest finds a finished result by digest under either input-format
// fingerprint (the daemon's analysis options are fixed, so the digest is
// unambiguous per format).
func (s *Service) lookupDigest(digest string) (*result, bool) {
	for _, fp := range []string{s.fpBinary, s.fpText} {
		if res, _ := s.lookup(cacheKey{Digest: digest, Fingerprint: fp}); res != nil {
			return res, true
		}
	}
	return nil, false
}

// handleResult serves the stored report document for a digest.
func (s *Service) handleResult(w http.ResponseWriter, r *http.Request) {
	res, ok := s.lookupDigest(r.PathValue("digest"))
	if !ok {
		http.Error(w, "unknown digest (result evicted or never analyzed)", http.StatusNotFound)
		return
	}
	s.serveResult(w, res, "hit")
}

// artifactContentTypes maps artifact names to their media types.
var artifactContentTypes = map[string]string{
	artifactPerfetto:     "application/json",
	artifactFlame:        "text/plain; charset=utf-8",
	artifactSnapshot:     "text/plain; version=0.0.4; charset=utf-8",
	artifactSnapshotJSON: "application/json",
}

// handleArtifact serves one rendered export artifact from the cache.
func (s *Service) handleArtifact(w http.ResponseWriter, r *http.Request) {
	res, ok := s.lookupDigest(r.PathValue("digest"))
	if !ok {
		http.Error(w, "unknown digest (result evicted or never analyzed)", http.StatusNotFound)
		return
	}
	name := r.PathValue("artifact")
	data, ok := res.artifacts[name]
	if !ok {
		http.Error(w, "no such artifact for this result", http.StatusNotFound)
		return
	}
	w.Header().Set("Content-Type", artifactContentTypes[name])
	w.Header().Set("X-Cache", "hit")
	w.Write(data)
}

// handleStats serves the live counters.
func (s *Service) handleStats(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	b, _ := json.MarshalIndent(s.Snapshot(), "", "  ")
	w.Write(append(b, '\n'))
}

// handleHealthz is liveness: the process is up and serving.
func (s *Service) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	fmt.Fprintln(w, "ok")
}

// handleReadyz is readiness, wired to the drain state and queue depth: a
// draining or saturated instance answers 503 so load balancers stop
// routing to it before the queue starts rejecting. A degraded persistence
// layer is a health *note*, not unreadiness — the daemon still serves from
// memory; operators see it here and in the persist metrics.
func (s *Service) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	depth := s.pool.depth.Load()
	status, code := "ready", http.StatusOK
	switch {
	case s.draining.Load():
		status, code = "draining", http.StatusServiceUnavailable
	case depth >= int64(s.cfg.QueueDepth):
		status, code = "saturated", http.StatusServiceUnavailable
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	fmt.Fprintf(w, "{\"status\":%q,\"queue_depth\":%d,\"queue_cap\":%d,\"persistence\":%q,\"uptime_seconds\":%.3f,\"version\":%q}\n",
		status, depth, s.cfg.QueueDepth, s.persistenceState(),
		time.Since(s.start).Seconds(), obs.Version())
}
