package service

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"testing"
	"time"

	"phasefold/internal/obs"
)

// chunkedUpload POSTs body with unknown length: wrapping the reader hides
// its size from net/http, which then uses chunked transfer encoding — the
// shape the streamed-upload path triggers on (r.ContentLength < 0).
func chunkedUpload(t testing.TB, base string, body []byte, hdr map[string]string) (*http.Response, []byte) {
	t.Helper()
	req, err := http.NewRequest("POST", base+"/v1/traces", io.NopCloser(bytes.NewReader(body)))
	if err != nil {
		t.Fatal(err)
	}
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("chunked upload: %v", err)
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatalf("read body: %v", err)
	}
	return resp, data
}

// TestStreamedUploadFastPath is the streaming acceptance test: a chunked
// pristine upload is analyzed while the body arrives (overlapping
// spool/stream spans in /v1/jobs/{id}), served with X-Cache: stream, and
// its result document and artifacts are byte-identical to what the classic
// spool-then-queue path produces for the same bytes.
func TestStreamedUploadFastPath(t *testing.T) {
	data := pristineTrace(t)
	const traceID = "stream-e2e-1"

	s, ts := newTestService(t, nil)
	resp, doc := chunkedUpload(t, ts.URL, data, map[string]string{"X-Request-Id": traceID})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("streamed upload: status %d body %s", resp.StatusCode, doc)
	}
	if got := resp.Header.Get("X-Cache"); got != "stream" {
		t.Fatalf("X-Cache = %q, want stream (body %s)", got, doc)
	}
	if got := s.Snapshot().Streamed; got != 1 {
		t.Errorf("stats streamed = %d, want 1", got)
	}

	// The job's span tree proves the overlap: the stream stage starts
	// before the spool stage ends and outlives it (it is sealed after the
	// body has fully landed).
	d, code := getJob(t, ts.URL, traceID)
	if code != http.StatusOK {
		t.Fatalf("jobs API: status %d", code)
	}
	stages := spanNames(d.Spans)
	spool, ok := stages[stageSpool]
	if !ok {
		t.Fatalf("span tree missing %q (have %v)", stageSpool, keysOf(stages))
	}
	str, ok := stages[stageStream]
	if !ok {
		t.Fatalf("span tree missing %q (have %v)", stageStream, keysOf(stages))
	}
	if str.StartNS >= spool.StartNS+spool.DurationNS {
		t.Errorf("stream span starts at %dns, after spool ended at %dns — no overlap",
			str.StartNS, spool.StartNS+spool.DurationNS)
	}
	if end := str.StartNS + str.DurationNS; end < spool.StartNS+spool.DurationNS {
		t.Errorf("stream span ends at %dns, before spool ended at %dns", end, spool.StartNS+spool.DurationNS)
	}
	if got := str.Attrs["result"]; got != "pristine" {
		t.Errorf("stream span result = %v, want pristine", got)
	}

	// The classic path over the same bytes (declared length, same trace
	// ID on a fresh daemon) must produce the byte-identical document.
	_, ts2 := newTestService(t, nil)
	resp2, doc2 := upload(t, ts2.URL, data, map[string]string{"X-Request-Id": traceID})
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("classic upload: status %d body %s", resp2.StatusCode, doc2)
	}
	if got := resp2.Header.Get("X-Cache"); got != "miss" {
		t.Errorf("classic X-Cache = %q, want miss", got)
	}
	if !bytes.Equal(doc, doc2) {
		t.Errorf("streamed document differs from the classic path's:\nstream: %s\nqueue:  %s", doc, doc2)
	}
	var rd struct {
		Digest string `json:"digest"`
	}
	if err := json.Unmarshal(doc, &rd); err != nil || rd.Digest == "" {
		t.Fatalf("result document has no digest: %v\n%s", err, doc)
	}
	for _, name := range []string{artifactPerfetto, artifactFlame, artifactSnapshot, artifactSnapshotJSON} {
		a1 := getArtifact(t, ts.URL, rd.Digest, name)
		a2 := getArtifact(t, ts2.URL, rd.Digest, name)
		if !bytes.Equal(a1, a2) {
			t.Errorf("artifact %s differs between the streamed and classic paths", name)
		}
	}

	// Identical bytes again arrive as a plain cache hit: the streamed
	// result was cached like any other.
	resp3, _ := chunkedUpload(t, ts.URL, data, nil)
	if got := resp3.Header.Get("X-Cache"); got != "hit" {
		t.Errorf("re-upload X-Cache = %q, want hit", got)
	}
}

func getArtifact(t *testing.T, base, digest, name string) []byte {
	t.Helper()
	r, err := http.Get(base + "/v1/results/" + digest + "/" + name)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Body.Close()
	if r.StatusCode != http.StatusOK {
		t.Fatalf("artifact %s: status %d", name, r.StatusCode)
	}
	b, err := io.ReadAll(r.Body)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestStreamedUploadFallsBackOnDamage: a chunked upload whose stream needs
// salvage is NOT served from the streamed session — the spool stays
// authoritative and the job goes through the classic queue path, whose
// whole-trace repair is what the result contract requires.
func TestStreamedUploadFallsBackOnDamage(t *testing.T) {
	data := faulted(t, pristineTrace(t), "chop=0.6", 1)
	const traceID = "stream-fallback-1"

	s, ts := newTestService(t, nil)
	resp, doc := chunkedUpload(t, ts.URL, data, map[string]string{"X-Request-Id": traceID})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("damaged chunked upload: status %d body %s", resp.StatusCode, doc)
	}
	if got := resp.Header.Get("X-Cache"); got != "miss" {
		t.Errorf("X-Cache = %q, want miss (queue path)", got)
	}
	if got := s.Snapshot().Streamed; got != 0 {
		t.Errorf("stats streamed = %d, want 0", got)
	}
	d, code := getJob(t, ts.URL, traceID)
	if code != http.StatusOK {
		t.Fatalf("jobs API: status %d", code)
	}
	stages := spanNames(d.Spans)
	str, ok := stages[stageStream]
	if !ok {
		t.Fatalf("span tree missing %q (have %v)", stageStream, keysOf(stages))
	}
	if got := str.Attrs["result"]; got == "pristine" {
		t.Errorf("stream span result = pristine for a damaged stream")
	}
	// The queue path still ran: its run span is in the tree.
	if _, ok := stages[stageRun]; !ok {
		t.Errorf("span tree missing %q — fallback did not go through the queue (have %v)",
			stageRun, keysOf(stages))
	}
}

// TestStreamedUploadServesTailDiagnostics: a clean chunked upload whose
// model carries a diagnostic of the shared pipeline tail — a folded cloud
// too sparse to fit, which stencil raises on every seed — is still served
// from the stream, and its degraded document is the one the queue path
// renders for the same bytes.
func TestStreamedUploadServesTailDiagnostics(t *testing.T) {
	data := encodeApp(t, "stencil", 4, 100, 1)
	const traceID = "stream-sparse-1"

	_, ts := newTestService(t, nil)
	resp, doc := chunkedUpload(t, ts.URL, data, map[string]string{"X-Request-Id": traceID})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("streamed upload: status %d body %s", resp.StatusCode, doc)
	}
	if got := resp.Header.Get("X-Cache"); got != "stream" {
		t.Fatalf("X-Cache = %q, want stream (body %s)", got, doc)
	}
	var rd struct {
		Outcome     string   `json:"outcome"`
		Diagnostics []string `json:"diagnostics"`
	}
	if err := json.Unmarshal(doc, &rd); err != nil {
		t.Fatal(err)
	}
	if rd.Outcome != "degraded" || len(rd.Diagnostics) == 0 {
		t.Fatalf("want a degraded document with tail diagnostics, got %s", doc)
	}

	_, ts2 := newTestService(t, nil)
	resp2, doc2 := upload(t, ts2.URL, data, map[string]string{"X-Request-Id": traceID})
	if got := resp2.Header.Get("X-Cache"); got != "miss" {
		t.Errorf("classic X-Cache = %q, want miss", got)
	}
	if !bytes.Equal(doc, doc2) {
		t.Errorf("streamed document differs from the classic path's:\nstream: %s\nqueue:  %s", doc, doc2)
	}
}

// hasSpan reports whether rep's subtree holds a span named name.
func hasSpan(rep obs.StageReport, name string) bool {
	for _, st := range rep.Stages {
		if st.Name == name || hasSpan(st, name) {
			return true
		}
	}
	return false
}

// TestStreamedUploadSpanTree: a streamed job is finished like a queued one.
// The session's pipeline stages nest under the stream stage, and the result
// is rendered under an export stage before it is published.
func TestStreamedUploadSpanTree(t *testing.T) {
	const traceID = "stream-tree-1"
	_, ts := newTestService(t, nil)
	resp, doc := chunkedUpload(t, ts.URL, pristineTrace(t), map[string]string{"X-Request-Id": traceID})
	if got := resp.Header.Get("X-Cache"); got != "stream" {
		t.Fatalf("X-Cache = %q, want stream (body %s)", got, doc)
	}
	d, code := getJob(t, ts.URL, traceID)
	if code != http.StatusOK {
		t.Fatalf("jobs API: status %d", code)
	}
	stages := spanNames(d.Spans)
	for _, want := range []string{stageStream, stageExport, stagePublish} {
		if _, ok := stages[want]; !ok {
			t.Errorf("span tree missing stage %q (have %v)", want, keysOf(stages))
		}
	}
	if _, ok := stages[stageRun]; ok {
		t.Errorf("streamed job has a %q stage; its analysis ran under %q", stageRun, stageStream)
	}
	for _, want := range []string{"fold", "fit"} {
		if !hasSpan(stages[stageStream], want) {
			t.Errorf("stream stage has no nested %q span", want)
		}
	}
	if exp := stages[stageExport]; exp.Attrs["bytes"] == nil {
		t.Errorf("export stage carries no bytes attribute: %+v", exp.Attrs)
	}
}

// TestStreamedUploadHonorsJobTimeout: the streamed attempt is bounded by
// the job timeout like a queued run, so an analysis that cannot meet it is
// not served from the stream.
func TestStreamedUploadHonorsJobTimeout(t *testing.T) {
	const traceID = "stream-timeout-1"
	s, ts := newTestService(t, func(c *Config) { c.JobTimeout = time.Nanosecond })
	resp, doc := chunkedUpload(t, ts.URL, pristineTrace(t), map[string]string{"X-Request-Id": traceID})
	if got := resp.Header.Get("X-Cache"); got == "stream" {
		t.Fatalf("X-Cache = stream under a 1ns job timeout (status %d body %s)", resp.StatusCode, doc)
	}
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Errorf("status %d, want 504 from the timed-out queued run (body %s)", resp.StatusCode, doc)
	}
	if got := s.Snapshot().Streamed; got != 0 {
		t.Errorf("stats streamed = %d, want 0", got)
	}
	d, code := getJob(t, ts.URL, traceID)
	if code != http.StatusOK {
		t.Fatalf("jobs API: status %d", code)
	}
	if str := spanNames(d.Spans)[stageStream]; str.Attrs["result"] != "failed" {
		t.Errorf("stream span result = %v, want failed", str.Attrs["result"])
	}
}
