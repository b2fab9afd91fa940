package export

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"phasefold/internal/obs"
	"phasefold/internal/runner"
	"phasefold/internal/stream"
)

func get(t *testing.T, ts *httptest.Server, path string) (*http.Response, string) {
	t.Helper()
	resp, err := ts.Client().Get(ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, string(body)
}

// TestServerIndex: the report page renders every cluster's phase table with
// its attribution, the timeline, and the artifact links.
func TestServerIndex(t *testing.T) {
	v := fixture(t)
	srv := NewServer()
	srv.SetView(v)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp, body := get(t, ts, "/")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET / = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/html") {
		t.Errorf("Content-Type = %q, want text/html", ct)
	}
	if !strings.Contains(body, v.App) {
		t.Error("page missing the app name")
	}
	for _, c := range v.Clusters {
		if len(c.Phases) == 0 {
			continue
		}
		if !strings.Contains(body, fmt.Sprintf("cluster %d phases", c.Label)) {
			t.Errorf("page missing the phase section for cluster %d", c.Label)
		}
		for _, p := range c.Phases {
			if p.Source != "" && !strings.Contains(body, p.Source) {
				t.Errorf("page missing attribution %q (cluster %d phase %d)",
					p.Source, c.Label, p.Index)
			}
		}
	}
	for _, link := range []string{
		"artifacts/trace.json", "artifacts/flame.folded",
		"artifacts/phases.prom", "artifacts/phases.json",
	} {
		if !strings.Contains(body, link) {
			t.Errorf("page missing artifact link %q", link)
		}
	}
	if !strings.Contains(body, "tlrow") {
		t.Error("page missing the timeline")
	}
}

// TestServerArtifacts: every artifact endpoint answers 200 with the right
// Content-Type and matches the direct renderer output.
func TestServerArtifacts(t *testing.T) {
	v := fixture(t)
	srv := NewServer()
	srv.SetView(v)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	cases := []struct{ path, wantCT, wantPrefix string }{
		{"/artifacts/trace.json", "application/json", "{"},
		{"/artifacts/flame.folded", "text/plain; charset=utf-8", v.App + ";cluster_"},
		{"/artifacts/flame.folded?weight=PAPI_TOT_INS", "text/plain; charset=utf-8", v.App + ";cluster_"},
		{"/artifacts/phases.prom", "text/plain; version=0.0.4; charset=utf-8", "# HELP"},
		{"/artifacts/phases.json", "application/json", "["},
	}
	for _, c := range cases {
		resp, body := get(t, ts, c.path)
		if resp.StatusCode != http.StatusOK {
			t.Errorf("GET %s = %d", c.path, resp.StatusCode)
			continue
		}
		if ct := resp.Header.Get("Content-Type"); ct != c.wantCT {
			t.Errorf("GET %s: Content-Type = %q, want %q", c.path, ct, c.wantCT)
		}
		if !strings.HasPrefix(body, c.wantPrefix) {
			t.Errorf("GET %s: body starts %.40q, want prefix %q", c.path, body, c.wantPrefix)
		}
	}
}

// TestServerNoView: before any analysis, the index renders a placeholder
// and the artifact endpoints answer 404.
func TestServerNoView(t *testing.T) {
	srv := NewServer()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp, body := get(t, ts, "/")
	if resp.StatusCode != http.StatusOK || !strings.Contains(body, "No analysis available") {
		t.Errorf("GET / = %d, want placeholder page", resp.StatusCode)
	}
	for _, path := range []string{
		"/artifacts/trace.json", "/artifacts/flame.folded",
		"/artifacts/phases.prom", "/artifacts/phases.json",
	} {
		resp, _ := get(t, ts, path)
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("GET %s = %d, want 404", path, resp.StatusCode)
		}
	}
	if resp, body := get(t, ts, "/healthz"); resp.StatusCode != http.StatusOK || !strings.Contains(body, "ok") {
		t.Errorf("GET /healthz = %d %q", resp.StatusCode, body)
	}
}

// TestServerBatchSSE: a supervised batch wired through PublishJob delivers
// exactly one "job" SSE event per job — including failed ones — to a
// subscriber that connects after the batch finished: the replay holds each
// job's latest event, so its start events are superseded.
func TestServerBatchSSE(t *testing.T) {
	srv := NewServer()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	jobs := []runner.Job{
		{Name: "ok", Run: func(context.Context) (string, bool, error) { return "fine", false, nil }},
		{Name: "degraded", Run: func(context.Context) (string, bool, error) { return "meh", true, nil }},
		{Name: "failed", Run: func(context.Context) (string, bool, error) { return "", false, errors.New("boom") }},
	}
	runner.Run(context.Background(), jobs, runner.Options{Workers: 1, Retries: 0, Progress: srv.PublishJob})

	resp, err := ts.Client().Get(ts.URL + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Errorf("Content-Type = %q, want text/event-stream", ct)
	}
	starts, finishes, finishData := 0, 0, 0
	outcomes := map[string]bool{}
	lastEvent := ""
	sc := bufio.NewScanner(resp.Body)
	for finishData < len(jobs) && sc.Scan() {
		line := sc.Text()
		switch {
		case line == "event: job-start":
			lastEvent = "job-start"
			starts++
		case line == "event: job":
			lastEvent = "job"
			finishes++
		case strings.HasPrefix(line, "data: "):
			if lastEvent == "job" {
				finishData++
				for _, o := range []string{"ok", "degraded", "failed"} {
					if strings.Contains(line, `"outcome":"`+o+`"`) {
						outcomes[o] = true
					}
				}
			}
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if starts != 0 || finishes != len(jobs) {
		t.Errorf("got %d starts and %d finishes, want 0 and %d", starts, finishes, len(jobs))
	}
	for _, o := range []string{"ok", "degraded", "failed"} {
		if !outcomes[o] {
			t.Errorf("no SSE event carried outcome %q", o)
		}
	}

	// The index renders the same progress as a table.
	_, body := get(t, ts, "/")
	if !strings.Contains(body, `id="jobdone">3</span>/3 jobs finished`) {
		t.Error("index missing the 3/3 progress line")
	}
	for _, name := range []string{"ok", "degraded", "failed"} {
		if !strings.Contains(body, "<td>"+name+"</td>") {
			t.Errorf("index job table missing job %q", name)
		}
	}
}

// TestServerPhasesSSE: PublishPhases pushes live streaming-analysis
// snapshots as `phases` SSE events (replayed from history for late
// joiners), so a connected page watches phases form while the trace is
// still being analyzed. A nil snapshot publishes nothing.
func TestServerPhasesSSE(t *testing.T) {
	srv := NewServer()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	srv.PublishPhases(nil) // ignored
	srv.PublishPhases(&stream.Snapshot{
		Bursts: 12, Trained: true, TrainedOn: 8, Clusters: 2,
		States: []stream.ClusterState{
			{Label: 0, Bursts: 7, Fitted: true, Phases: []stream.PhasePreview{{X0: 0, X1: 0.5, Slope: 1.5}}},
			{Label: 1, Bursts: 5},
		},
	})

	resp, err := ts.Client().Get(ts.URL + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	var data string
	for sc.Scan() {
		line := sc.Text()
		if line == "event: phases" {
			if !sc.Scan() {
				t.Fatal("phases event without a data line")
			}
			data = strings.TrimPrefix(sc.Text(), "data: ")
			break
		}
	}
	if data == "" {
		t.Fatalf("no phases event on /events (scanner err %v)", sc.Err())
	}
	var snap stream.Snapshot
	if err := json.Unmarshal([]byte(data), &snap); err != nil {
		t.Fatalf("phases data is not a Snapshot: %v\n%s", err, data)
	}
	if snap.Bursts != 12 || snap.Clusters != 2 || len(snap.States) != 2 {
		t.Errorf("replayed snapshot = %+v, want 12 bursts / 2 clusters / 2 states", snap)
	}
	if !snap.States[0].Fitted || len(snap.States[0].Phases) != 1 || snap.States[0].Phases[0].Slope != 1.5 {
		t.Errorf("cluster state 0 lost its preview fit: %+v", snap.States[0])
	}
}

// TestServerShutdown: Shutdown ends a live SSE stream promptly and stops
// the listener, so SIGINT handling in the CLIs can exit cleanly.
func TestServerShutdown(t *testing.T) {
	srv := NewServer()
	addr, err := srv.ListenAndServe("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get("http://" + addr + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	streamDone := make(chan error, 1)
	go func() {
		_, err := io.Copy(io.Discard, resp.Body)
		streamDone <- err
	}()

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	select {
	case <-streamDone:
		// Stream ended; EOF or a reset are both acceptable terminations.
	case <-time.After(2 * time.Second):
		t.Fatal("SSE stream still open 2s after Shutdown")
	}
	if _, err := http.Get("http://" + addr + "/healthz"); err == nil {
		t.Error("listener still accepting after Shutdown")
	}
}

// TestServerMountDebug: a mounted debug mux shares the report listener.
func TestServerMountDebug(t *testing.T) {
	srv := NewServer()
	reg := obs.NewRegistry()
	reg.Counter("phasefold_test_total", "test counter").Inc()
	srv.MountDebug(obs.DebugMux(reg))
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp, body := get(t, ts, "/metrics")
	if resp.StatusCode != http.StatusOK || !strings.Contains(body, "phasefold_test_total") {
		t.Errorf("GET /metrics = %d, body %.60q", resp.StatusCode, body)
	}
	if resp, _ := get(t, ts, "/debug/vars"); resp.StatusCode != http.StatusOK {
		t.Errorf("GET /debug/vars = %d", resp.StatusCode)
	}
}
