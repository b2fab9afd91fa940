package service

import (
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"phasefold/internal/obs"
)

// spanNames flattens a report's immediate children into a name set.
func spanNames(rep obs.StageReport) map[string]obs.StageReport {
	m := make(map[string]obs.StageReport, len(rep.Stages))
	for _, st := range rep.Stages {
		m[st.Name] = st
	}
	return m
}

func getJob(t *testing.T, base, id string) (jobDetail, int) {
	t.Helper()
	r, err := http.Get(base + "/v1/jobs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Body.Close()
	var d jobDetail
	if r.StatusCode == http.StatusOK {
		if err := json.NewDecoder(r.Body).Decode(&d); err != nil {
			t.Fatalf("jobs API returned invalid JSON: %v", err)
		}
	}
	return d, r.StatusCode
}

func TestJobLifecycleTraceAndIntrospection(t *testing.T) {
	_, ts := newTestService(t, nil)
	data := pristineTrace(t)

	resp, body := upload(t, ts.URL, data, map[string]string{
		"X-Request-Id": "trace-lifecycle-1", "X-Tenant": "acme"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("upload: status %d body %s", resp.StatusCode, body)
	}
	// The trace ID is echoed on the response and stamped into the document.
	if got := resp.Header.Get("X-Request-Id"); got != "trace-lifecycle-1" {
		t.Errorf("X-Request-Id echo = %q, want the inbound ID", got)
	}
	var doc struct {
		TraceID string `json:"trace_id"`
	}
	if err := json.Unmarshal(body, &doc); err != nil || doc.TraceID != "trace-lifecycle-1" {
		t.Errorf("result document trace_id = %q, want trace-lifecycle-1", doc.TraceID)
	}

	d, code := getJob(t, ts.URL, "trace-lifecycle-1")
	if code != http.StatusOK {
		t.Fatalf("GET /v1/jobs/{id}: status %d", code)
	}
	if d.Tenant != "acme" || d.State != "ok" || d.Cache != "miss" {
		t.Errorf("job summary tenant=%q state=%q cache=%q, want acme/ok/miss",
			d.Tenant, d.State, d.Cache)
	}
	if d.Spans.Name != "job" || d.Spans.DurationNS <= 0 {
		t.Fatalf("span tree root %q duration %d, want a closed 'job' root",
			d.Spans.Name, d.Spans.DurationNS)
	}
	stages := spanNames(d.Spans)
	for _, want := range []string{"admission", "spool", "cache", "queue", "run", "export", "publish"} {
		st, ok := stages[want]
		if !ok {
			t.Errorf("span tree missing stage %q (have %v)", want, keysOf(stages))
			continue
		}
		if st.DurationNS < 0 {
			t.Errorf("stage %q has negative duration %d", want, st.DurationNS)
		}
	}
	if run, ok := stages["run"]; ok && len(run.Stages) == 0 {
		t.Error("run stage has no nested supervisor spans; analysis spans did not attach")
	}

	// A cache hit is a new, shorter lifecycle under its own trace.
	resp2, _ := upload(t, ts.URL, data, map[string]string{"X-Request-Id": "trace-lifecycle-2"})
	if resp2.Header.Get("X-Cache") != "hit" {
		t.Fatalf("re-upload X-Cache = %q, want hit", resp2.Header.Get("X-Cache"))
	}
	d2, code := getJob(t, ts.URL, "trace-lifecycle-2")
	if code != http.StatusOK || d2.Cache != "hit" || d2.State != "ok" {
		t.Errorf("hit lifecycle: status %d cache=%q state=%q", code, d2.Cache, d2.State)
	}
	if _, ok := spanNames(d2.Spans)["run"]; ok {
		t.Error("a cache hit must not have a run stage")
	}

	// The jobs list serves both, newest first, and filters by tenant.
	r, err := http.Get(ts.URL + "/v1/jobs?tenant=acme")
	if err != nil {
		t.Fatal(err)
	}
	var list struct {
		Jobs []jobSummary `json:"jobs"`
	}
	if err := json.NewDecoder(r.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	if len(list.Jobs) != 1 || list.Jobs[0].ID != "trace-lifecycle-1" {
		t.Errorf("tenant filter returned %+v, want just trace-lifecycle-1", list.Jobs)
	}

	if _, code := getJob(t, ts.URL, "never-seen"); code != http.StatusNotFound {
		t.Errorf("unknown job id: status %d, want 404", code)
	}
}

func keysOf(m map[string]obs.StageReport) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	return out
}

func TestRequestIDEchoedOnEveryReply(t *testing.T) {
	_, ts := newTestService(t, nil)

	// A rejected upload (empty body → 4xx/analysis failure) still echoes.
	resp, _ := upload(t, ts.URL, []byte("not a trace"), map[string]string{"X-Request-Id": "bad-upload"})
	if got := resp.Header.Get("X-Request-Id"); got != "bad-upload" {
		t.Errorf("failed upload X-Request-Id = %q, want bad-upload (status %d)", got, resp.StatusCode)
	}
	// GETs mint one when the client sent none.
	r, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	if r.Header.Get("X-Request-Id") == "" {
		t.Error("/v1/stats reply has no X-Request-Id")
	}
	// A hostile inbound ID is replaced, not echoed.
	req, _ := http.NewRequest("GET", ts.URL+"/v1/stats", nil)
	req.Header.Set("X-Request-Id", "../../etc/passwd")
	r2, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	r2.Body.Close()
	if got := r2.Header.Get("X-Request-Id"); got == "" || strings.Contains(got, "/") {
		t.Errorf("hostile inbound ID echoed as %q, want a fresh mint", got)
	}
}

func TestJobLogRingEviction(t *testing.T) {
	l := newJobLog(2)
	a := newJobTrace("a", "t", time.Now())
	b := newJobTrace("b", "t", time.Now())
	c := newJobTrace("c", "t", time.Now())
	l.add(a)
	l.add(b)
	l.add(c) // evicts a
	if _, ok := l.get("a"); ok {
		t.Error("oldest trace survived past capacity")
	}
	if _, ok := l.get("c"); !ok {
		t.Error("newest trace missing")
	}
	got := l.recent(10, "", "")
	if len(got) != 2 || got[0].id != "c" || got[1].id != "b" {
		ids := make([]string, len(got))
		for i, jt := range got {
			ids[i] = jt.id
		}
		t.Errorf("recent = %v, want [c b]", ids)
	}
	// ID reuse: the latest trace wins the index; eviction of the older
	// entry must not delete the newer one.
	c2 := newJobTrace("c", "t", time.Now())
	l.add(c2) // ring now holds [c, c2]; "b" evicted
	l.add(newJobTrace("d", "t", time.Now()))
	if jt, ok := l.get("c"); !ok || jt != c2 {
		t.Error("ID reuse: index lost the latest trace after evicting the older duplicate")
	}
}

func TestStatsAndReadyzCarryVersionAndUptime(t *testing.T) {
	_, ts := newTestService(t, nil)
	var st struct {
		Version   string  `json:"version"`
		UptimeSec float64 `json:"uptime_seconds"`
	}
	r, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(r.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	if st.Version == "" || st.UptimeSec < 0 {
		t.Errorf("stats version=%q uptime=%v, want both populated", st.Version, st.UptimeSec)
	}
	rz, err := http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	body := make([]byte, 4096)
	n, _ := rz.Body.Read(body)
	rz.Body.Close()
	if !strings.Contains(string(body[:n]), `"version"`) || !strings.Contains(string(body[:n]), `"uptime_seconds"`) {
		t.Errorf("readyz missing version/uptime: %s", body[:n])
	}
}

func TestSlowJobMarkingAndProfileCapture(t *testing.T) {
	profDir := t.TempDir()
	s, ts := newTestService(t, func(c *Config) {
		c.SlowJob = time.Nanosecond // everything is slow
		c.SlowJobProfile = true
		c.ProfileDir = profDir
		c.Registry = obs.NewRegistry()
	})
	resp, _ := upload(t, ts.URL, pristineTrace(t), map[string]string{"X-Request-Id": "slow-1"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("upload: status %d", resp.StatusCode)
	}
	d, code := getJob(t, ts.URL, "slow-1")
	if code != http.StatusOK || !d.Slow {
		t.Errorf("job past a 1ns threshold not marked slow (status %d, slow %v)", code, d.Slow)
	}
	if got := s.reg.Counter(obs.MetricSlowJobs, "").Value(); got < 1 {
		t.Errorf("slow-job counter = %v, want >= 1", got)
	}

	// The watchdog path: a still-running trace crosses the threshold and a
	// CPU profile is captured until the job finishes. The upload's own
	// watchdog fired after 1ns, so its callback may still hold the capture
	// gate (starting or stopping a profile for a job that has already
	// answered): wait for the gate, and try again if that callback takes it
	// between the wait and the call.
	jt := newJobTrace("wedged-1", "t", time.Now())
	s.jobs.add(jt)
	prof := filepath.Join(profDir, "slowjob-wedged-1.pprof")
	for deadline := time.Now().Add(10 * time.Second); ; {
		for profileActive.Load() && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
		s.jobOverThreshold(jt)
		if _, err := os.Stat(prof); err == nil || time.Now().After(deadline) {
			break
		}
	}
	if _, err := os.Stat(prof); err != nil {
		t.Fatalf("slow-job profile not started: %v", err)
	}
	s.finishTrace(jt, "ok")
	if profileActive.Load() {
		t.Error("profile still active after the job finished")
	}
	if fi, err := os.Stat(prof); err != nil || fi.Size() == 0 {
		t.Errorf("captured profile unreadable or empty: %v", err)
	}
	// A second capture can start once the first released the gate.
	jt2 := newJobTrace("wedged-2", "t", time.Now())
	s.jobOverThreshold(jt2)
	s.finishTrace(jt2, "ok")
	if profileActive.Load() {
		t.Error("profile gate leaked")
	}
}

func TestDashboardServesLiveSnapshot(t *testing.T) {
	_, ts := newTestService(t, nil)
	upload(t, ts.URL, pristineTrace(t), map[string]string{"X-Tenant": "dash"})

	r, err := http.Get(ts.URL + "/dash/")
	if err != nil {
		t.Fatal(err)
	}
	page := readBody(t, r)
	if !strings.Contains(page, "phasefoldd") {
		t.Error("dashboard page not served at /dash/")
	}
	// Job completion published a snapshot before any ticker fired.
	r2, err := http.Get(ts.URL + "/dash/snapshot.json")
	if err != nil {
		t.Fatal(err)
	}
	snap := readBody(t, r2)
	if r2.StatusCode != http.StatusOK {
		t.Fatalf("snapshot: status %d", r2.StatusCode)
	}
	for _, want := range []string{`"queue_depth"`, `"stages"`, `"jobs"`, `"persistence"`, `"version"`} {
		if !strings.Contains(snap, want) {
			t.Errorf("snapshot missing %s:\n%s", want, snap)
		}
	}
	if !strings.Contains(snap, `"name":"run"`) {
		t.Errorf("snapshot stage table missing the run stage:\n%s", snap)
	}
	// The bare /dash redirects to the canonical slash form.
	r3, err := http.Get(ts.URL + "/dash")
	if err != nil {
		t.Fatal(err)
	}
	r3.Body.Close()
	if r3.Request.URL.Path != "/dash/" {
		t.Errorf("GET /dash landed on %q, want /dash/", r3.Request.URL.Path)
	}
}

func readBody(t *testing.T, r *http.Response) string {
	t.Helper()
	defer r.Body.Close()
	var sb strings.Builder
	buf := make([]byte, 8192)
	for {
		n, err := r.Body.Read(buf)
		sb.Write(buf[:n])
		if err != nil {
			return sb.String()
		}
	}
}

// TestQuantileOf pins the dashboard's small-sample quantile helper.
func TestQuantileOf(t *testing.T) {
	if got := quantileOf(nil, 0.5); got != 0 {
		t.Errorf("quantileOf(nil) = %v, want 0", got)
	}
	vals := []float64{5, 1, 3, 2, 4}
	if got := quantileOf(vals, 0.5); got != 3 {
		t.Errorf("median = %v, want 3", got)
	}
	if got := quantileOf(vals, 1); got != 5 {
		t.Errorf("max = %v, want 5", got)
	}
	if fmt.Sprint(vals) != "[5 1 3 2 4]" {
		t.Error("quantileOf mutated its input")
	}
}
