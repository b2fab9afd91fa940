package core

import (
	"context"
	"log/slog"
	"strings"
	"testing"
	"time"

	"phasefold/internal/obs"
	"phasefold/internal/simapp"
	"phasefold/internal/trace"
)

// analyzeWithTelemetry runs one instrumented analysis of a pristine trace
// and returns the recorder and registry it filled.
func analyzeWithTelemetry(t *testing.T) (*Model, *obs.Recorder, *obs.Registry) {
	t.Helper()
	tr := acquireTrace(t)
	rec := obs.NewRecorder()
	reg := obs.NewRegistry()
	ctx := obs.WithTelemetry(context.Background(), rec, reg)
	model, err := Analyze(ctx, tr, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	return model, rec, reg
}

func TestAnalyzeRecordsSpanTree(t *testing.T) {
	model, rec, _ := analyzeWithTelemetry(t)

	roots := rec.Roots()
	if len(roots) != 1 || roots[0].Name() != "analyze" {
		t.Fatalf("roots = %d, want one analyze span", len(roots))
	}
	analyze := roots[0]
	if v, _ := analyze.Attr("outcome"); v != "ok" {
		t.Errorf("analyze outcome attr = %v, want ok", v)
	}
	for _, stage := range []string{"prepare", "extract", "cluster", "spmd", "fold", "fit"} {
		if analyze.Child(stage) == nil {
			t.Errorf("stage span %q missing", stage)
		}
	}
	if v, ok := analyze.Child("extract").Attr("bursts"); !ok || v.(int64) <= 0 {
		t.Errorf("extract bursts attr = %v, %v", v, ok)
	}
	if v, ok := analyze.Child("cluster").Attr("clusters"); !ok || v.(int64) != int64(model.NumClusters) {
		t.Errorf("cluster clusters attr = %v, want %d", v, model.NumClusters)
	}
	if v, ok := analyze.Child("fold").Attr("folded_points"); !ok || v.(int64) <= 0 {
		t.Errorf("fold folded_points attr = %v, %v", v, ok)
	}
	fit := analyze.Child("fit")
	if v, ok := fit.Attr("clusters_fit"); !ok || v.(int64) <= 0 {
		t.Errorf("fit clusters_fit attr = %v, %v", v, ok)
	}
	// Every fitted cluster gets its own child span, and the DP fit lands its
	// cell count on it.
	kids := fit.Children()
	if len(kids) == 0 {
		t.Fatal("fit span has no per-cluster children")
	}
	cells := int64(0)
	for _, k := range kids {
		if !strings.HasPrefix(k.Name(), "fit_cluster_") {
			t.Errorf("unexpected fit child %q", k.Name())
		}
		if v, ok := k.Attr("dp_cells"); ok {
			cells += v.(int64)
		}
	}
	if cells <= 0 {
		t.Error("no dp_cells attribute on any per-cluster fit span")
	}
	// The stage spans partition the analyze span: being sequential children,
	// their durations must not exceed their parent's.
	var sum time.Duration
	for _, c := range analyze.Children() {
		sum += c.Duration()
	}
	if sum > analyze.Duration()*11/10 {
		t.Errorf("stage durations %v exceed analyze %v by >10%%", sum, analyze.Duration())
	}
}

func TestAnalyzeFillsMetrics(t *testing.T) {
	model, _, reg := analyzeWithTelemetry(t)

	if got := reg.Counter(obs.MetricAnalyses, "", obs.Label{K: "outcome", V: "ok"}).Value(); got != 1 {
		t.Errorf("%s{outcome=ok} = %d, want 1", obs.MetricAnalyses, got)
	}
	if got := reg.Counter(obs.MetricBurstsExtracted, "").Value(); got != int64(model.NumBursts) {
		t.Errorf("%s = %d, want %d", obs.MetricBurstsExtracted, got, model.NumBursts)
	}
	if got := reg.Counter(obs.MetricClustersFound, "").Value(); got != int64(model.NumClusters) {
		t.Errorf("%s = %d, want %d", obs.MetricClustersFound, got, model.NumClusters)
	}
	if got := reg.Counter(obs.MetricDPCells, "").Value(); got <= 0 {
		t.Errorf("%s = %d, want > 0", obs.MetricDPCells, got)
	}
	if got := reg.Counter(obs.MetricPWLFits, "").Value(); got <= 0 {
		t.Errorf("%s = %d, want > 0", obs.MetricPWLFits, got)
	}
	// One duration observation per stage.
	for _, stage := range []string{"prepare", "extract", "cluster", "spmd", "fold", "fit"} {
		h := reg.Histogram(obs.MetricStageDuration, "", obs.DurationBuckets(),
			obs.Label{K: "stage", V: stage})
		if h.Count() != 1 {
			t.Errorf("%s{stage=%s} count = %d, want 1", obs.MetricStageDuration, stage, h.Count())
		}
	}
	// The whole registry must render as valid exposition text.
	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "phasefold_analyses_total{outcome=\"ok\"} 1") {
		t.Errorf("exposition missing analyses counter:\n%s", b.String())
	}
}

func TestDiagnosticsCarryKindsAndEvents(t *testing.T) {
	tr := damage(t, acquireTrace(t), "drop=0.1")
	var buf strings.Builder
	ctx := obs.WithLogger(context.Background(), slog.New(slog.NewTextHandler(&buf, nil)))
	reg := obs.NewRegistry()
	ctx = obs.WithTelemetry(ctx, nil, reg)

	model, err := Analyze(ctx, tr, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(model.Diagnostics) == 0 {
		t.Fatal("damaged trace produced no diagnostics")
	}
	for _, d := range model.Diagnostics {
		if d.Kind == "" {
			t.Errorf("diagnostic without Kind: %s", d)
		}
		dg := d.Diag()
		if dg.Kind != d.Kind || dg.Stage != d.Stage || dg.Detail != d.Message {
			t.Errorf("Diag() lost fields: %+v vs %+v", dg, d)
		}
		if !strings.Contains(dg.String(), d.Kind+"/"+d.Stage) {
			t.Errorf("Diag.String() = %q, want kind/stage prefix", dg.String())
		}
	}
	// Each diagnostic was also emitted as a structured event and counted.
	if got := strings.Count(buf.String(), "msg=diagnostic"); got != len(model.Diagnostics) {
		t.Errorf("%d diagnostic events logged, want %d\n%s", got, len(model.Diagnostics), buf.String())
	}
	var total int64
	kinds := map[string]bool{}
	for _, d := range model.Diagnostics {
		kinds[d.Kind] = true
	}
	for k := range kinds {
		total += reg.Counter(obs.MetricDiagnostics, "", obs.Label{K: "kind", V: k}).Value()
	}
	if total != int64(len(model.Diagnostics)) {
		t.Errorf("diagnostics counter total = %d, want %d", total, len(model.Diagnostics))
	}
}

func TestTelemetryDisabledIsInert(t *testing.T) {
	// Without telemetry in the context the same call paths must run
	// untouched: nil spans, nil registry, no-op logger.
	tr := acquireTrace(t)
	model, err := Analyze(context.Background(), tr, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if model.NumClusters == 0 {
		t.Fatal("analysis produced no clusters")
	}
}

// benchTrace builds one pristine trace outside the timed loop.
func benchTrace(b *testing.B) *trace.Trace {
	b.Helper()
	app, err := simapp.NewApp("multiphase")
	if err != nil {
		b.Fatal(err)
	}
	run, err := RunApp(app, simapp.Config{Ranks: 4, Iterations: 120, Seed: 42, FreqGHz: 2}, DefaultOptions())
	if err != nil {
		b.Fatal(err)
	}
	return run.Trace
}

// The pair below bounds the cost of the instrumentation sites themselves:
// with no collectors in the context every site is one ctx.Value lookup plus
// nil-receiver no-ops, and the two benchmarks should be within noise of
// each other (<2% is the acceptance bar).
func BenchmarkAnalyzeTelemetryOff(b *testing.B) {
	tr := benchTrace(b)
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Analyze(ctx, tr, DefaultOptions()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAnalyzeTelemetryOn(b *testing.B) {
	tr := benchTrace(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ctx := obs.WithTelemetry(context.Background(), obs.NewRecorder(), obs.NewRegistry())
		if _, err := Analyze(ctx, tr, DefaultOptions()); err != nil {
			b.Fatal(err)
		}
	}
}
