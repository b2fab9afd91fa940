package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"phasefold/internal/align"
	"phasefold/internal/cluster"
	"phasefold/internal/core"
	"phasefold/internal/counters"
	"phasefold/internal/export"
	"phasefold/internal/folding"
	"phasefold/internal/obs"
	"phasefold/internal/pwl"
	"phasefold/internal/trace"
)

// layers are the program's layers as the traced run names them, each with
// the name of its work count.
var layers = []struct{ name, count string }{
	{"trace.decode", "trace.decode.bytes"},
	{"trace.chunk", "trace.chunk.records"},
	{"trace.validate", "trace.validate.records"},
	{"trace.extract", "trace.extract.bursts"},
	{"stream.feed", "stream.feed.records"},
	{"stream.done", "stream.done.bursts"},
	{"cluster.refine", "cluster.refine.points"},
	{"cluster.dbscan", "cluster.dbscan.points"},
	{"align.spmd", "align.spmd.symbols"},
	{"folding.fold", "folding.fold.points"},
	{"pwl.fit", "pwl.fit.points"},
	{"folding.attribute", "folding.attribute.phases"},
	{"export.view", "export.view.bursts"},
	{"export.render", "export.bytes"},
}

// span is one recorded call into a layer. Spans of one op share Op; a
// child names its parent's index.
type span struct {
	Name   string `json:"name"`
	Op     int    `json:"op"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Allocs uint64 `json:"allocs"`
	Count  int64  `json:"count"`
}

// recorder keeps the traced run's spans in memory; write saves them when
// the run ends.
type recorder struct {
	epoch time.Time
	spans []span
	op    int
	mem   runtime.MemStats
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// call runs fn as one call into a layer and records its span: wall time
// and heap allocations (both excluding the reading of the allocation
// counter itself) and the work count fn returns. It returns the span's
// index for children.
func (r *recorder) call(name string, parent int, fn func() (int64, error)) (int, error) {
	i := len(r.spans)
	r.spans = append(r.spans, span{Name: name, Op: r.op, Parent: parent})
	runtime.ReadMemStats(&r.mem)
	a0 := r.mem.Mallocs
	t0 := time.Since(r.epoch)
	n, err := fn()
	t1 := time.Since(r.epoch)
	runtime.ReadMemStats(&r.mem)
	s := &r.spans[i]
	s.Start, s.End, s.Allocs, s.Count = int64(t0), int64(t1), r.mem.Mallocs-a0, n
	return i, err
}

// adopt records a stage span the pipeline itself emitted as a child of
// parent, under the benchmark's layer name. Its allocations are not
// separable and stay with the parent.
func (r *recorder) adopt(parent int, name string, s *obs.Span, count int64) {
	if s == nil {
		return
	}
	start := s.Start().Sub(r.epoch)
	r.spans = append(r.spans, span{Name: name, Op: r.op, Parent: parent,
		Start: int64(start), End: int64(start + s.Duration()), Count: count})
}

// write saves the spans as JSON lines.
func (r *recorder) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range r.spans {
		if err := enc.Encode(&r.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// layerMetrics turns the spans into the per-layer metrics: for each layer
// the median self time per op (a span's duration minus its children's),
// its share of all op time, and the median allocations and work count per
// op. Medians are over the ops that called the layer; a layer no op
// called reads 0.
func (r *recorder) layerMetrics(m map[string]metric) {
	type agg struct {
		self   time.Duration
		allocs uint64
		count  int64
	}
	childDur := make([]time.Duration, len(r.spans))
	childAllocs := make([]uint64, len(r.spans))
	for _, s := range r.spans {
		if s.Parent >= 0 {
			childDur[s.Parent] += time.Duration(s.End - s.Start)
			childAllocs[s.Parent] += s.Allocs
		}
	}
	perOp := make([]map[string]*agg, r.op)
	var total time.Duration
	for i, s := range r.spans {
		if s.Op >= r.op {
			continue
		}
		if perOp[s.Op] == nil {
			perOp[s.Op] = map[string]*agg{}
		}
		a := perOp[s.Op][s.Name]
		if a == nil {
			a = &agg{}
			perOp[s.Op][s.Name] = a
		}
		d := time.Duration(s.End - s.Start)
		a.self += d - childDur[i]
		if s.Allocs > childAllocs[i] {
			a.allocs += s.Allocs - childAllocs[i]
		}
		a.count += s.Count
		if s.Parent < 0 {
			total += d
		}
	}
	for _, l := range layers {
		var selfMS, allocs, counts []float64
		var sum time.Duration
		for _, op := range perOp {
			if a := op[l.name]; a != nil {
				selfMS = append(selfMS, ms(a.self))
				allocs = append(allocs, float64(a.allocs))
				counts = append(counts, float64(a.count))
				sum += a.self
			}
		}
		share := 0.0
		if total > 0 {
			share = float64(sum) / float64(total)
		}
		m[l.name+".ms"] = metric{median(selfMS), "ms"}
		m[l.name+".share"] = metric{share, "ratio"}
		m[l.name+".allocs"] = metric{median(allocs), "count"}
		m[l.count] = metric{median(counts), "count"}
	}
}

// tracedOps is the bookkeeping every traced run shares: the untraced
// serial time of the same ops, for the tracing overhead, and the
// clustering outcome counts.
type tracedOps struct {
	rec               *recorder
	untraced          time.Duration
	clustered, bursts int64
	peakRecords       []float64
	lateness          float64 // ms; open-loop runs only
	extra             map[string]float64
	tally             tally
}

func newTracedOps() *tracedOps {
	return &tracedOps{rec: newRecorder(), extra: map[string]float64{}}
}

// clusteredOf counts bursts that landed in a cluster.
func (t *tracedOps) clusteredOf(bursts []trace.Burst) {
	for i := range bursts {
		if bursts[i].Cluster >= 0 {
			t.clustered++
		}
	}
	t.bursts += int64(len(bursts))
}

// serviceMetrics are the service and runner layers, read from the job
// stage trees; they are 0 on the library workloads.
var serviceMetrics = []struct{ name, unit string }{
	{"service.admission.ms", "ms"},
	{"service.spool.ms", "ms"},
	{"service.queue.wait_ms", "ms"},
	{"service.run.ms", "ms"},
	{"service.export.ms", "ms"},
	{"service.publish.ms", "ms"},
	{"service.cache.hit_ratio", "ratio"},
	{"service.stream.share", "ratio"},
	{"service.rejected", "count"},
	{"runner.retries", "count"},
}

// result prints the layer table, saves the spans, and returns the
// per-layer metrics.
func (t *tracedOps) result(workload string, seed uint64) (*result, error) {
	m := map[string]metric{}
	t.rec.layerMetrics(m)
	for _, s := range serviceMetrics {
		m[s.name] = metric{t.extra[s.name], s.unit}
	}
	m["stream.peak_records"] = metric{median(t.peakRecords), "count"}
	share := 0.0
	if t.bursts > 0 {
		share = float64(t.clustered) / float64(t.bursts)
	}
	m["cluster.clustered_share"] = metric{share, "ratio"}
	var traced time.Duration
	for _, s := range t.rec.spans {
		if s.Parent < 0 && s.Op < t.rec.op {
			traced += time.Duration(s.End - s.Start)
		}
	}
	overhead := 0.0
	if t.untraced > 0 {
		overhead = 100 * float64(traced-t.untraced) / float64(t.untraced)
	}
	m["harness.trace_overhead_pct"] = metric{overhead, "%"}
	m["harness.lateness_ms"] = metric{t.lateness, "ms"}

	fmt.Printf("%s traced ops=%d (composed %.2fs, untraced serial %.2fs)\n",
		workload, t.rec.op, traced.Seconds(), t.untraced.Seconds())
	for _, l := range layers {
		if v := m[l.name+".share"].Value; v > 0 {
			fmt.Printf("  %-18s self %8.3f ms/op  share %5.1f%%  allocs %8.0f  %s %.0f\n",
				l.name, m[l.name+".ms"].Value, 100*v, m[l.name+".allocs"].Value, l.count, m[l.count].Value)
		}
	}
	path := filepath.Join(".bench_build", "spans", fmt.Sprintf("%s-seed%d.jsonl", workload, seed))
	if err := t.rec.write(path); err != nil {
		return nil, fmt.Errorf("writing spans: %w", err)
	}
	fmt.Printf("spans written to %s\n", path)
	return &result{Correct: true, Attempted: t.tally.attempted, Failed: t.tally.failed, Metrics: m}, nil
}

// composeFront decodes, validates, and extracts one trace through the
// trace layer's own functions, one span each.
func composeFront(t *tracedOps, ctx context.Context, data []byte, dopt trace.DecodeOptions, opt core.Options) (*trace.Trace, []trace.Burst, error) {
	r := t.rec
	var tr *trace.Trace
	if _, err := r.call("trace.decode", -1, func() (int64, error) {
		var err error
		tr, _, err = trace.Decode(ctx, bytes.NewReader(data), dopt)
		return int64(len(data)), err
	}); err != nil {
		return nil, nil, err
	}
	if _, err := r.call("trace.validate", -1, func() (int64, error) {
		return int64(tr.NumEvents() + tr.NumSamples()), tr.Validate()
	}); err != nil {
		return nil, nil, err
	}
	var bursts []trace.Burst
	_, err := r.call("trace.extract", -1, func() (int64, error) {
		bopt := trace.BurstOptions{MinDuration: opt.MinBurstDuration}
		for _, rd := range tr.Ranks {
			b, err := trace.ExtractRankBursts(rd, bopt)
			if err != nil {
				return 0, err
			}
			bursts = append(bursts, b...)
		}
		trace.SortBursts(bursts)
		return int64(len(bursts)), nil
	})
	return tr, bursts, err
}

// composeTail runs structure detection, the SPMD score, folding, fitting,
// and attribution through each layer's own function, one span each, in
// the order and with the options Analyze uses, and returns what every op
// is checked on.
func composeTail(t *tracedOps, ctx context.Context, tr *trace.Trace, bursts []trace.Burst, opt core.Options) (signature, error) {
	r := t.rec
	var sig signature
	if opt.UseRefinement {
		if _, err := r.call("cluster.refine", -1, func() (int64, error) {
			pts, valid := cluster.Extract(bursts, opt.Features)
			cluster.Normalize(pts, valid, cluster.MinSpans(opt.Features))
			idx := make([]int, 0, len(bursts))
			sub := make([]cluster.Point, 0, len(bursts))
			for i := range pts {
				if valid[i] {
					idx = append(idx, i)
					sub = append(sub, pts[i])
				}
			}
			subLabels, err := cluster.RefineContext(ctx, sub, opt.Refine)
			if err != nil {
				return 0, err
			}
			labels := make([]int, len(bursts))
			for i := range labels {
				labels[i] = cluster.Noise
			}
			for k, i := range idx {
				labels[i] = subLabels[k]
			}
			cluster.ApplyLabels(bursts, labels)
			return int64(len(sub)), nil
		}); err != nil {
			return sig, err
		}
	} else if _, err := r.call("cluster.dbscan", -1, func() (int64, error) {
		_, err := cluster.ClusterBurstsContext(ctx, bursts, opt.Features, opt.DBSCAN)
		return int64(len(bursts)), err
	}); err != nil {
		return sig, err
	}
	t.clusteredOf(bursts)

	sig.spmd = 1
	r.call("align.spmd", -1, func() (int64, error) {
		n := tr.NumRanks()
		if n < 2 {
			return 0, nil
		}
		seqs := make([][]int, n)
		var symbols int64
		for i := range bursts {
			if b := &bursts[i]; b.Cluster >= 0 {
				seqs[b.Rank] = append(seqs[b.Rank], b.Cluster)
				symbols++
			}
		}
		msa, err := align.Progressive(seqs, align.DefaultScoring())
		sig.spmd = 0 // Analyze scores a failed alignment as 0
		if err == nil {
			sig.spmd = msa.SPMDScore()
		}
		return symbols, nil
	})

	stats := cluster.Stats(bursts)
	folded := make([]*folding.Folded, len(stats))
	if _, err := r.call("folding.fold", -1, func() (int64, error) {
		project := folding.TraceProjector(tr)
		var points int64
		for i, st := range stats {
			f, err := folding.FoldWith(project, bursts, st.Label, opt.Folding)
			if err != nil {
				return 0, fmt.Errorf("folding cluster %d: %w", st.Label, err)
			}
			folded[i] = f
			points += int64(f.TotalPoints())
		}
		return points, nil
	}); err != nil {
		return sig, err
	}

	fits := make([]*pwl.Model, len(stats))
	if _, err := r.call("pwl.fit", -1, func() (int64, error) {
		var points int64
		for i, f := range folded {
			xs, ys := pointsOf(f, counters.Instructions)
			if len(xs) < opt.MinFoldedPoints {
				continue
			}
			fit, err := pwl.FitContext(ctx, xs, ys, opt.PWL)
			if err != nil {
				return 0, fmt.Errorf("fitting cluster %d: %w", stats[i].Label, err)
			}
			fits[i] = fit
			points += int64(len(xs))
			for id := counters.ID(0); id < counters.NumIDs; id++ {
				if id == counters.Instructions {
					continue
				}
				if cx, cy := pointsOf(f, id); len(cx) >= opt.MinFoldedPoints/2 {
					_, _ = pwl.FitWithBreakpoints(cx, cy, fit.Breakpoints, opt.PWL) // Analyze skips counters that do not fit
				}
			}
		}
		return points, nil
	}); err != nil {
		return sig, err
	}

	r.call("folding.attribute", -1, func() (int64, error) {
		var phases int64
		for i, fit := range fits {
			if fit == nil {
				continue
			}
			for _, seg := range fit.Segments() {
				if _, ok := folding.Attribute(folded[i], tr.Stacks, seg.X0, seg.X1); ok {
					folding.Profile(folded[i], tr.Stacks, seg.X0, seg.X1)
				}
				phases++
			}
		}
		return phases, nil
	})

	sig.labels = make([]int, len(bursts))
	for i := range bursts {
		sig.labels[i] = bursts[i].Cluster
	}
	sig.bps = map[int][]float64{}
	for i, fit := range fits {
		if fit != nil {
			sig.bps[stats[i].Label] = fit.Breakpoints
		}
	}
	return sig, nil
}

// composeExport builds the export view of a model and renders the four
// artifacts the daemon serves, one span each.
func composeExport(t *tracedOps, m *core.Model, tr *trace.Trace) {
	var view *core.ExportView
	t.rec.call("export.view", -1, func() (int64, error) {
		view = m.Export(tr)
		return int64(len(view.Bursts)), nil
	})
	t.rec.call("export.render", -1, func() (int64, error) {
		return int64(renderArtifacts(view)), nil
	})
}

// renderArtifacts renders the four artifacts the daemon serves for every
// result and returns their total size.
func renderArtifacts(view *core.ExportView) int {
	var buf bytes.Buffer
	_ = export.WritePerfetto(&buf, view) // writes to a bytes.Buffer do not fail
	_ = export.WriteFlamegraph(&buf, view, "")
	_ = export.WriteOpenMetrics(&buf, view)
	_ = export.WriteSnapshotJSON(&buf, view)
	return buf.Len()
}

func pointsOf(f *folding.Folded, id counters.ID) (xs, ys []float64) {
	pts := f.Points[id]
	xs = make([]float64, len(pts))
	ys = make([]float64, len(pts))
	for i, p := range pts {
		xs[i] = p.X
		ys[i] = p.Y
	}
	return xs, ys
}
