package export

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"time"

	"phasefold/internal/core"
	"phasefold/internal/runner"
	"phasefold/internal/stream"
)

// Server is the embedded HTML report server: an interactive phase timeline
// and sortable tables at /, downloadable artifacts under /artifacts/, and
// an SSE stream of batch progress at /events. It is safe for concurrent
// use; the served view can be swapped while requests are in flight (batch
// mode updates it as jobs finish).
type Server struct {
	mu   sync.Mutex
	view *core.ExportView
	jobs map[int]jobState
	nJob int

	broker *broker
	debug  http.Handler

	httpSrv *http.Server
}

// jobState is the server's record of one batch job, rendered in the
// progress table and pushed over SSE.
type jobState struct {
	Index    int    `json:"index"`
	Name     string `json:"name"`
	Outcome  string `json:"outcome"` // "running" until decided
	Attempts int    `json:"attempts,omitempty"`
	Duration string `json:"duration,omitempty"`
	Detail   string `json:"detail,omitempty"`
}

// NewServer returns a report server with no view yet (the index renders a
// placeholder until SetView is called).
func NewServer() *Server {
	return &Server{jobs: make(map[int]jobState), broker: newBroker()}
}

// SetView installs (or replaces) the analysis the server renders.
func (s *Server) SetView(v *core.ExportView) {
	s.mu.Lock()
	s.view = v
	s.mu.Unlock()
}

// MountDebug attaches a debug handler (pprof/expvar/metrics mux) under
// /debug/ and /metrics, sharing the report server's listener so one -serve
// address exposes both the results and the tool's self-telemetry.
func (s *Server) MountDebug(h http.Handler) { s.debug = h }

// PublishJob records a batch progress event and pushes it to every SSE
// subscriber. Each job is one broker key, so a page that connects late
// receives every job's latest event. Wire it as runner.Options.Progress;
// it is safe for concurrent calls from the worker pool.
func (s *Server) PublishJob(ev runner.Event) {
	st := jobState{Index: ev.Index, Name: ev.Name, Outcome: "running"}
	sse := "job-start"
	if ev.Type == runner.JobFinished && ev.Result != nil {
		sse = "job"
		st.Outcome = ev.Result.Outcome.String()
		st.Attempts = ev.Result.Attempts
		st.Duration = ev.Result.Duration.Round(time.Millisecond).String()
		st.Detail = ev.Result.Detail
		if ev.Result.Err != nil {
			st.Detail = ev.Result.Err.Error()
		}
	}
	s.mu.Lock()
	s.jobs[ev.Index] = st
	if ev.Total > s.nJob {
		s.nJob = ev.Total
	}
	s.mu.Unlock()
	data, _ := json.Marshal(st)
	s.broker.publish("job-"+strconv.Itoa(ev.Index), frame{event: sse, data: data})
}

// PublishPhases pushes a live streaming-analysis snapshot to every SSE
// subscriber as a `phases` event, so a connected page watches phases form
// while the trace is still being fed; a late joiner receives the latest
// snapshot. A nil snapshot is ignored. Safe for concurrent use.
func (s *Server) PublishPhases(snap *stream.Snapshot) {
	if snap == nil {
		return
	}
	data, _ := json.Marshal(snap)
	s.broker.publish("phases", frame{event: "phases", data: data})
}

// Handler returns the server's routing table.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/", s.handleIndex)
	mux.HandleFunc("/artifacts/trace.json", s.artifact("application/json", WritePerfetto))
	mux.HandleFunc("/artifacts/flame.folded", s.handleFlame)
	mux.HandleFunc("/artifacts/phases.prom", s.artifact("text/plain; version=0.0.4; charset=utf-8", WriteOpenMetrics))
	mux.HandleFunc("/artifacts/phases.json", s.artifact("application/json", WriteSnapshotJSON))
	mux.Handle("/events", s.broker)
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	if s.debug != nil {
		mux.Handle("/debug/", s.debug)
		mux.Handle("/metrics", s.debug)
	}
	return mux
}

// ListenAndServe starts serving on addr and returns the bound address
// (useful with ":0"). Serving continues until Shutdown.
func (s *Server) ListenAndServe(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", fmt.Errorf("export: report server: %w", err)
	}
	s.httpSrv = &http.Server{Handler: s.Handler()}
	go func() { _ = s.httpSrv.Serve(ln) }()
	return ln.Addr().String(), nil
}

// Shutdown drains the server deterministically: the broker closes, which
// ends every /events stream on the shutdown event at once, and only then
// is the HTTP listener shut down, so the drain never waits on a
// client-side timeout.
func (s *Server) Shutdown(ctx context.Context) error {
	s.broker.close()
	if s.httpSrv == nil {
		return nil
	}
	return s.httpSrv.Shutdown(ctx)
}

// pageData is the precomputed template input; see page.go.
type pageData struct {
	View            *core.ExportView
	Timeline        []tlRow
	ClusterSections []clusterSection
	MetricNames     []string
	Weights         []string
	HasJobs         bool
	Jobs            []jobState
	Finished        []int // indices of the jobs with an outcome
	JobsTotal       int
}

type tlRow struct {
	Rank int
	Segs []tlSeg
}

type tlSeg struct {
	Left, Width float64
	Color       string
	Title       string
}

type clusterSection struct {
	Label int
	Rep   string
	Rows  []phaseRow
}

type phaseRow struct {
	Index    int
	X0, X1   string
	Duration string
	Cells    []string
	Source   string
	Share    string
}

// headlineMetrics are the per-phase metric columns shown on the page, in
// display order (the snapshot artifacts carry the full set).
var headlineMetrics = []string{"MIPS", "IPC", "L1D_misses/Kinstr", "L3_misses/Kinstr", "branch_miss_%"}

func (s *Server) handleIndex(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/" {
		http.NotFound(w, r)
		return
	}
	s.mu.Lock()
	d := pageData{View: s.view, JobsTotal: s.nJob, HasJobs: s.nJob > 0, Finished: []int{}}
	for i := 0; i < s.nJob; i++ {
		st, ok := s.jobs[i]
		if !ok {
			st = jobState{Index: i, Outcome: "pending"}
		}
		if st.Outcome != "running" && st.Outcome != "pending" {
			d.Finished = append(d.Finished, i)
		}
		d.Jobs = append(d.Jobs, st)
	}
	s.mu.Unlock()
	if d.View != nil {
		d.Timeline = buildTimeline(d.View)
		d.MetricNames, d.ClusterSections = buildSections(d.View)
		d.Weights = FlamegraphWeights(d.View)
	}
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	if err := pageTmpl.Execute(w, d); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

// artifact wraps a view renderer as an HTTP handler with the right
// Content-Type; without a view it answers 404 (nothing analyzed yet).
func (s *Server) artifact(contentType string, write func(io.Writer, *core.ExportView) error) http.HandlerFunc {
	return func(w http.ResponseWriter, _ *http.Request) {
		s.mu.Lock()
		v := s.view
		s.mu.Unlock()
		if v == nil {
			http.Error(w, "no analysis available yet", http.StatusNotFound)
			return
		}
		w.Header().Set("Content-Type", contentType)
		if err := write(w, v); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	}
}

func (s *Server) handleFlame(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	v := s.view
	s.mu.Unlock()
	if v == nil {
		http.Error(w, "no analysis available yet", http.StatusNotFound)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	if err := WriteFlamegraph(w, v, r.URL.Query().Get("weight")); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

// buildTimeline converts the view's bursts into per-rank strips of
// percent-positioned colored segments.
func buildTimeline(v *core.ExportView) []tlRow {
	if v.End <= 0 || v.Ranks <= 0 {
		return nil
	}
	rows := make([]tlRow, v.Ranks)
	for r := range rows {
		rows[r].Rank = r
	}
	end := float64(v.End)
	for i := range v.Bursts {
		b := &v.Bursts[i]
		if int(b.Rank) >= len(rows) || b.End <= b.Start {
			continue
		}
		left := 100 * float64(b.Start) / end
		width := 100 * float64(b.End-b.Start) / end
		if width < 0.05 {
			width = 0.05 // keep sub-pixel bursts visible
		}
		rows[b.Rank].Segs = append(rows[b.Rank].Segs, tlSeg{
			Left:  left,
			Width: width,
			Color: clusterColor(b.Cluster),
			Title: fmt.Sprintf("cluster %d [%s – %s]", b.Cluster, b.Start, b.End),
		})
	}
	return rows
}

// clusterColor assigns each cluster a stable hue (golden-angle spacing);
// noise is gray.
func clusterColor(label int) string {
	if label < 0 {
		return "#bbb"
	}
	return fmt.Sprintf("hsl(%d,65%%,55%%)", (label*137)%360)
}

// buildSections precomputes the per-cluster phase tables: the union of
// metric names present (stable order), then one row per phase with a cell
// per metric name.
func buildSections(v *core.ExportView) ([]string, []clusterSection) {
	nameSet := make(map[string]bool)
	for i := range v.Clusters {
		for pi := range v.Clusters[i].Phases {
			for _, m := range v.Clusters[i].Phases[pi].Metrics {
				nameSet[m.Name] = true
			}
		}
	}
	var names []string
	for _, n := range headlineMetrics {
		if nameSet[n] {
			names = append(names, n)
		}
	}
	var rest []string
	for n := range nameSet {
		if !contains(names, n) {
			rest = append(rest, n)
		}
	}
	sort.Strings(rest)
	names = append(names, rest...)

	var sections []clusterSection
	for i := range v.Clusters {
		c := &v.Clusters[i]
		if len(c.Phases) == 0 {
			continue
		}
		sec := clusterSection{Label: c.Label, Rep: c.RepDuration.String()}
		for pi := range c.Phases {
			p := &c.Phases[pi]
			row := phaseRow{
				Index:    p.Index,
				X0:       fmt.Sprintf("%.3f", p.X0),
				X1:       fmt.Sprintf("%.3f", p.X1),
				Duration: p.Duration.String(),
				Source:   p.Source,
			}
			if p.Source != "" {
				row.Share = fmt.Sprintf("%.2f", p.Share)
			} else {
				row.Share = "–"
			}
			byName := make(map[string]float64, len(p.Metrics))
			for _, m := range p.Metrics {
				byName[m.Name] = m.Value
			}
			for _, n := range names {
				if val, ok := byName[n]; ok {
					row.Cells = append(row.Cells, fmt.Sprintf("%.3g", val))
				} else {
					row.Cells = append(row.Cells, "–")
				}
			}
			sec.Rows = append(sec.Rows, row)
		}
		sections = append(sections, sec)
	}
	return names, sections
}

func contains(xs []string, s string) bool {
	for _, x := range xs {
		if x == s {
			return true
		}
	}
	return false
}
