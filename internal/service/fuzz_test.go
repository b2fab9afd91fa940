package service

import (
	"bytes"
	"context"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"phasefold/internal/faults"
	"phasefold/internal/trace"
)

// uploadStatuses are the codes POST /v1/traces answers with: a result
// (200, or the analysis outcome's 422, 500, 503 or 504), a bad or empty
// body (400), an oversized body (413), an exhausted tenant quota (429), a
// spool failure (500), and a draining daemon or full queue (503).
var uploadStatuses = map[int]bool{
	http.StatusOK:                    true,
	http.StatusBadRequest:            true,
	http.StatusRequestEntityTooLarge: true,
	http.StatusUnprocessableEntity:   true,
	http.StatusTooManyRequests:       true,
	http.StatusInternalServerError:   true,
	http.StatusServiceUnavailable:    true,
	http.StatusGatewayTimeout:        true,
}

// fuzzMaxBody is the fuzzed daemon's body bound: above the seed traces,
// so they are analyzed, and small enough that a doubled one is refused.
const fuzzMaxBody = 16 << 10

// FuzzUpload drives the upload handler with fuzzed bodies, sent chunked
// (the streamed path) or with a declared length (the queued path), under
// hostile X-Request-Id and traceparent headers. Every upload must answer
// with a documented status, and every admitted upload must settle: its
// lifecycle reaches a terminal state, its flight is retired and the queue
// drains back to empty.
func FuzzUpload(f *testing.F) {
	pristine := encodeApp(f, "multiphase", 2, 12, 3)
	if len(pristine) >= fuzzMaxBody {
		f.Fatalf("seed trace is %d bytes, over the %d-byte body bound", len(pristine), fuzzMaxBody)
	}
	bodies := [][]byte{
		pristine,
		faultedTrace(f, pristine, "drop=0.2", 1),
		faultedTrace(f, pristine, "dup=0.1,reorder=0.1", 2),
		faultedTrace(f, pristine, "garble=0.05,wrap=33", 3),
		faultedTrace(f, pristine, "truncate=0.7,killrank=0.5", 4),
		faultedTrace(f, pristine, "zero=0.1,skew=200us", 5),
		faulted(f, pristine, "chop=0.5", 6),
		append(append([]byte(nil), pristine...), pristine...), // over the bound
		[]byte("PFT2"),
		[]byte("not a trace"),
		nil,
	}
	headers := [][2]string{
		{"fuzz-1", ""},
		{"", "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01"},
		{"bad id\r\nX-Injected: 1", "00-00000000000000000000000000000000-00f067aa0ba902b7-01"},
		{string(bytes.Repeat([]byte("x"), 300)), "ff-zz-!!-"},
		{"../../etc/passwd", "00-4BF92F3577B34DA6A3CE929D0E0E4736-0000000000000000-ff-extra"},
	}
	for i, body := range bodies {
		h := headers[i%len(headers)]
		f.Add(body, i%2 == 0, h[0], h[1])
		f.Add(body, i%2 != 0, h[0], h[1])
	}

	s, err := New(fuzzConfig(f.TempDir()))
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = s.Drain(ctx)
	})
	h := s.Handler()

	f.Fuzz(func(t *testing.T, body []byte, chunked bool, reqID, traceparent string) {
		req := httptest.NewRequest("POST", "/v1/traces", bytes.NewReader(body))
		req.ContentLength = int64(len(body))
		if chunked {
			req.ContentLength = -1
		}
		req.Header["X-Request-Id"] = []string{reqID}
		req.Header["Traceparent"] = []string{traceparent}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)

		if !uploadStatuses[rec.Code] {
			t.Fatalf("undocumented status %d (body %q)", rec.Code, rec.Body.Bytes())
		}
		id := rec.Header().Get("X-Request-Id")
		if id == "" {
			t.Fatal("reply carries no X-Request-Id")
		}
		if rec.Code != http.StatusTooManyRequests {
			jt, ok := s.jobs.get(id)
			if !ok {
				t.Fatalf("admitted upload %q (status %d) has no lifecycle in the jobs ring", id, rec.Code)
			}
			switch st := jt.summary().State; st {
			case "accepted", "queued", "running":
				t.Fatalf("upload %q answered %d with its lifecycle still %q", id, rec.Code, st)
			}
		}
		// The worker lowers the queue depth just after it answers the flight.
		deadline := time.Now().Add(10 * time.Second)
		for {
			s.fly.mu.Lock()
			flights := len(s.fly.m)
			s.fly.mu.Unlock()
			depth := s.pool.depth.Load()
			if flights == 0 && depth == 0 {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("upload %q did not settle: %d flights held, queue depth %d", id, flights, depth)
			}
			time.Sleep(time.Millisecond)
		}
	})
}

// faultedTrace applies a fault spec's trace-level faults to decoded trace
// bytes, re-encodes them and applies its stream-level faults.
func faultedTrace(t testing.TB, data []byte, spec string, seed uint64) []byte {
	t.Helper()
	tr, _, err := trace.Decode(context.Background(), bytes.NewReader(data), trace.DecodeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	chain, err := faults.Parse(spec, seed)
	if err != nil {
		t.Fatal(err)
	}
	chain.ApplyTrace(tr)
	var buf bytes.Buffer
	if err := trace.Encode(&buf, tr); err != nil {
		t.Fatal(err)
	}
	return chain.ApplyStream(buf.Bytes())
}

// fuzzConfig is a memory-only daemon with a small body bound and a quota
// the fuzzer cannot exhaust.
func fuzzConfig(spool string) Config {
	cfg := Defaults()
	cfg.MaxBodyBytes = fuzzMaxBody
	cfg.QueueDepth = 4
	cfg.Workers = 2
	cfg.JobTimeout = 10 * time.Second
	cfg.TenantRate = 1e9
	cfg.TenantBurst = 1 << 30
	cfg.CacheEntries = 16
	cfg.CacheBytes = 8 << 20
	cfg.JobsHistory = 16
	cfg.SpoolDir = spool
	return cfg
}
