package phasefold_test

import (
	"bytes"
	"context"
	"errors"
	"reflect"
	"strings"
	"testing"
	"time"

	"phasefold"
)

// TestErrorSentinelTaxonomy pins the errors.Is relationships of the public
// sentinel set: the format sentinels all match the ErrFormat umbrella,
// and the umbrellas stay disjoint from one another.
func TestErrorSentinelTaxonomy(t *testing.T) {
	cases := []struct {
		name   string
		err    error
		target error
		want   bool
	}{
		{"bad magic is format", phasefold.ErrBadMagic, phasefold.ErrFormat, true},
		{"truncated is format", phasefold.ErrTruncated, phasefold.ErrFormat, true},
		{"corrupt is format", phasefold.ErrCorrupt, phasefold.ErrFormat, true},
		{"no ranks is format", phasefold.ErrNoRanks, phasefold.ErrFormat, true},
		{"invalid is format", phasefold.ErrInvalid, phasefold.ErrFormat, true},
		{"budget is not format", phasefold.ErrBudget, phasefold.ErrFormat, false},
		{"panic is not format", phasefold.ErrPanic, phasefold.ErrFormat, false},
		{"canceled is not format", phasefold.ErrCanceled, phasefold.ErrFormat, false},
		{"format is not budget", phasefold.ErrFormat, phasefold.ErrBudget, false},
		{"budget is not panic", phasefold.ErrBudget, phasefold.ErrPanic, false},
		{"canceled matches context.Canceled", phasefold.ErrCanceled, context.Canceled, true},
		{"truncated keeps its identity", phasefold.ErrTruncated, phasefold.ErrTruncated, true},
		{"truncated is not corrupt", phasefold.ErrTruncated, phasefold.ErrCorrupt, false},
	}
	for _, tc := range cases {
		if got := errors.Is(tc.err, tc.target); got != tc.want {
			t.Errorf("%s: errors.Is = %v, want %v", tc.name, got, tc.want)
		}
	}
}

// TestErrorSentinelsEndToEnd drives each failure class through the public
// entry points and checks the returned error matches the advertised
// umbrella sentinel.
func TestErrorSentinelsEndToEnd(t *testing.T) {
	if _, _, err := phasefold.Decode(context.Background(), strings.NewReader("NOPE....")); !errors.Is(err, phasefold.ErrFormat) || !errors.Is(err, phasefold.ErrBadMagic) {
		t.Fatalf("garbage decode: %v, want ErrFormat/ErrBadMagic", err)
	}

	app, err := phasefold.NewApp("multiphase")
	if err != nil {
		t.Fatal(err)
	}
	cfg := phasefold.DefaultConfig()
	cfg.Iterations = 30
	run, err := phasefold.RunApp(app, cfg, phasefold.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := phasefold.Analyze(ctx, run.Trace); !errors.Is(err, phasefold.ErrCanceled) {
		t.Fatalf("pre-canceled analyze: %v, want ErrCanceled", err)
	}

	if _, err := phasefold.Analyze(context.Background(), run.Trace,
		phasefold.WithStrict(),
		phasefold.WithBudget(phasefold.Budget{MaxRecords: 10})); !errors.Is(err, phasefold.ErrBudget) {
		t.Fatalf("strict over-budget analyze: %v, want ErrBudget", err)
	}

	var bin bytes.Buffer
	if err := phasefold.EncodeTrace(&bin, run.Trace); err != nil {
		t.Fatal(err)
	}
	if _, _, err := phasefold.Decode(context.Background(), bytes.NewReader(bin.Bytes()[:bin.Len()/2])); !errors.Is(err, phasefold.ErrFormat) {
		t.Fatalf("truncated decode: %v, want ErrFormat", err)
	}
}

// TestStreamSessionMatchesAnalyze checks the facade's streaming session
// produces the same model as batch Analyze over the same records.
func TestStreamSessionMatchesAnalyze(t *testing.T) {
	app, err := phasefold.NewApp("multiphase")
	if err != nil {
		t.Fatal(err)
	}
	cfg := phasefold.DefaultConfig()
	cfg.Iterations = 40
	run, err := phasefold.RunApp(app, cfg, phasefold.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	want, err := phasefold.Analyze(context.Background(), run.Trace)
	if err != nil {
		t.Fatal(err)
	}
	sess, err := phasefold.Stream(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if err := sess.FeedTrace(run.Trace); err != nil {
		t.Fatal(err)
	}
	got, err := sess.Done()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatal("streamed model diverges from batch Analyze")
	}
	if _, err := sess.Done(); !errors.Is(err, phasefold.ErrSessionDone) {
		t.Fatalf("second Done: got %v, want ErrSessionDone", err)
	}
}

// TestFunctionalOptionsCompose checks options apply left to right and
// WithOptions resets earlier tuning.
func TestFunctionalOptionsCompose(t *testing.T) {
	app, err := phasefold.NewApp("multiphase")
	if err != nil {
		t.Fatal(err)
	}
	cfg := phasefold.DefaultConfig()
	cfg.Iterations = 40
	run, err := phasefold.RunApp(app, cfg, phasefold.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}

	// WithOptions after WithStrict resets strictness: the tiny budget must
	// degrade (diagnostics), not fail.
	m, err := phasefold.Analyze(context.Background(), run.Trace,
		phasefold.WithStrict(),
		phasefold.WithOptions(phasefold.DefaultOptions()),
		phasefold.WithBudget(phasefold.Budget{StageTimeout: time.Hour}))
	if err != nil {
		t.Fatalf("lenient analyze failed: %v", err)
	}
	if m.NumClusters == 0 {
		t.Fatal("no clusters")
	}

	// Telemetry option records stage spans.
	rec := phasefold.NewSpanRecorder()
	reg := phasefold.NewMetricsRegistry()
	if _, err := phasefold.Analyze(context.Background(), run.Trace,
		phasefold.WithTelemetry(rec, reg), phasefold.WithParallelism(2)); err != nil {
		t.Fatal(err)
	}
	roots := rec.Roots()
	if len(roots) == 0 {
		t.Fatal("WithTelemetry recorded no spans")
	}
}
