package core

import (
	"context"
	"errors"
	"slices"
	"strings"
	"testing"
	"time"

	"phasefold/internal/simapp"
)

func hasDiag(m *Model, substr string) bool {
	for _, d := range m.Diagnostics {
		if strings.Contains(d.Message, substr) {
			return true
		}
	}
	return false
}

func TestBudgetMaxRanksTrimsLenient(t *testing.T) {
	tr := acquireTrace(t) // 4 ranks
	opt := DefaultOptions()
	opt.Budget = Budget{MaxRanks: 2}
	model, err := Analyze(context.Background(), tr, opt)
	if err != nil {
		t.Fatal(err)
	}
	if !hasDiag(model, "budget_exceeded:ranks") {
		t.Errorf("no budget_exceeded:ranks diagnostic; got %v", model.Diagnostics)
	}
	if !model.Degraded() {
		t.Error("budget-trimmed analysis not marked degraded")
	}
	// The trimmed analysis must still find the phases of the kept ranks.
	if model.NumClusters == 0 {
		t.Error("budget-trimmed analysis found no clusters")
	}
	for _, b := range model.Bursts {
		if b.Rank >= 2 {
			t.Fatalf("burst from rank %d survived a MaxRanks=2 budget", b.Rank)
		}
	}
}

func TestBudgetMaxRecordsTrimsAtRankGranularity(t *testing.T) {
	tr := acquireTrace(t)
	total := tr.NumEvents() + tr.NumSamples()
	opt := DefaultOptions()
	opt.Budget = Budget{MaxRecords: total / 2}
	model, err := Analyze(context.Background(), tr, opt)
	if err != nil {
		t.Fatal(err)
	}
	if !hasDiag(model, "budget_exceeded:records") {
		t.Errorf("no budget_exceeded:records diagnostic; got %v", model.Diagnostics)
	}
	seen := map[int32]bool{}
	for _, b := range model.Bursts {
		seen[b.Rank] = true
	}
	if len(seen) >= tr.NumRanks() {
		t.Errorf("record budget kept all %d ranks", tr.NumRanks())
	}
	if len(seen) == 0 {
		t.Error("record budget kept no ranks at all")
	}
}

func TestBudgetMaxBytesTrims(t *testing.T) {
	tr := acquireTrace(t)
	opt := DefaultOptions()
	opt.Budget = Budget{MaxBytes: tr.EstimateBytes() / 2}
	model, err := Analyze(context.Background(), tr, opt)
	if err != nil {
		t.Fatal(err)
	}
	if !hasDiag(model, "budget_exceeded:memory") {
		t.Errorf("no budget_exceeded:memory diagnostic; got %v", model.Diagnostics)
	}
}

func TestBudgetKeepsAtLeastOneRank(t *testing.T) {
	tr := acquireTrace(t)
	opt := DefaultOptions()
	opt.Budget = Budget{MaxRecords: 1} // smaller than any single rank
	model, err := Analyze(context.Background(), tr, opt)
	if err != nil {
		t.Fatalf("an impossible record budget must degrade, not fail: %v", err)
	}
	seen := map[int32]bool{}
	for _, b := range model.Bursts {
		seen[b.Rank] = true
	}
	if len(seen) != 1 {
		t.Errorf("kept %d ranks, want exactly the first", len(seen))
	}
}

func TestBudgetStrictFailsFast(t *testing.T) {
	tr := acquireTrace(t)
	opt := DefaultOptions()
	opt.Strict = true
	opt.Budget = Budget{MaxRanks: 2}
	if _, err := Analyze(context.Background(), tr, opt); !errors.Is(err, ErrBudget) {
		t.Fatalf("strict over-budget analysis returned %v, want ErrBudget", err)
	}
}

func TestBudgetUnlimitedZeroValue(t *testing.T) {
	if !(Budget{}).Unlimited() {
		t.Error("zero Budget must be unlimited")
	}
	tr := acquireTrace(t)
	opt := DefaultOptions() // zero budget
	model, err := Analyze(context.Background(), tr, opt)
	if err != nil {
		t.Fatal(err)
	}
	if hasDiag(model, "budget_exceeded") {
		t.Errorf("unlimited budget produced budget diagnostics: %v", model.Diagnostics)
	}
}

func TestStageTimeoutDegradesFitting(t *testing.T) {
	tr := acquireTrace(t)
	opt := DefaultOptions()
	// A stage allowance that expires immediately: extraction and earlier
	// loops may still finish a unit of work, but fitting must reject its
	// clusters with the budget reason rather than fail the analysis.
	opt.Budget = Budget{StageTimeout: time.Nanosecond}
	model, err := Analyze(context.Background(), tr, opt)
	if err != nil {
		t.Fatalf("stage timeout must degrade, not fail: %v", err)
	}
	if !model.Degraded() {
		t.Error("stage-timeout analysis not marked degraded")
	}
	if !hasDiag(model, "budget_exceeded") {
		t.Errorf("no budget_exceeded diagnostic under a 1ns stage budget; got %v", model.Diagnostics)
	}
}

func TestPanicInFitIsolatedPerCluster(t *testing.T) {
	// cg separates into three clusters (spmv/dot/axpy), so one cluster's
	// panic leaves two healthy ones to prove the isolation boundary.
	app, err := simapp.NewApp("cg")
	if err != nil {
		t.Fatal(err)
	}
	run, err := RunApp(app, simapp.Config{Ranks: 4, Iterations: 150, Seed: 11, FreqGHz: 2}, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	tr := run.Trace
	testHookFit = func(label int) {
		if label == 0 {
			panic("injected fit bug")
		}
	}
	defer func() { testHookFit = nil }()
	model, err := Analyze(context.Background(), tr, DefaultOptions())
	if err != nil {
		t.Fatalf("lenient analysis must absorb a per-cluster panic: %v", err)
	}
	ca := model.Cluster(0)
	if ca == nil || ca.Quality != QualityRejected {
		t.Fatal("panicked cluster not graded rejected")
	}
	if !strings.Contains(ca.QualityReason, "panic") {
		t.Errorf("quality reason %q does not mention the panic", ca.QualityReason)
	}
	healthy := 0
	for _, c := range model.Clusters {
		if c.Quality == QualityOK {
			healthy++
		}
	}
	if healthy == 0 {
		t.Error("no cluster survived one cluster's panic")
	}
}

func TestPanicInFitStrictReturnsErrPanic(t *testing.T) {
	tr := acquireTrace(t)
	testHookFit = func(int) { panic("injected fit bug") }
	defer func() { testHookFit = nil }()
	opt := DefaultOptions()
	opt.Strict = true
	if _, err := Analyze(context.Background(), tr, opt); !errors.Is(err, ErrPanic) {
		t.Fatalf("strict analysis returned %v, want ErrPanic", err)
	}
}

func TestPanicInExtractIsolatedPerRank(t *testing.T) {
	tr := acquireTrace(t)
	testHookExtract = func(rank int) {
		if rank == 1 {
			panic("injected extractor bug")
		}
	}
	defer func() { testHookExtract = nil }()
	model, err := Analyze(context.Background(), tr, DefaultOptions())
	if err != nil {
		t.Fatalf("lenient analysis must absorb a per-rank panic: %v", err)
	}
	for _, b := range model.Bursts {
		if b.Rank == 1 {
			t.Fatal("bursts from the panicked rank leaked into the model")
		}
	}
	if !hasDiag(model, "rank dropped") {
		t.Errorf("no rank-dropped diagnostic; got %v", model.Diagnostics)
	}
}

func TestAnalyzeCancelsPromptly(t *testing.T) {
	// A big enough trace that a full analysis takes well over the
	// cancellation budget.
	app, err := simapp.NewApp("multiphase")
	if err != nil {
		t.Fatal(err)
	}
	run, err := RunApp(app, simapp.Config{Ranks: 8, Iterations: 2000, Seed: 42, FreqGHz: 2}, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	start := time.Now()
	_, err = Analyze(ctx, run.Trace, DefaultOptions())
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled analysis returned %v, want context.Canceled", err)
	}
	if d := time.Since(start); d > 100*time.Millisecond {
		t.Errorf("cancellation took %v, want under 100ms", d)
	}

	// And mid-flight: cancel while the analysis is running.
	ctx, cancel = context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := Analyze(ctx, run.Trace, DefaultOptions())
		done <- err
	}()
	time.Sleep(20 * time.Millisecond)
	cancel()
	start = time.Now()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("mid-flight cancel returned %v, want context.Canceled", err)
		}
		if d := time.Since(start); d > 100*time.Millisecond {
			t.Errorf("mid-flight cancellation took %v after cancel, want under 100ms", d)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("analysis ignored cancellation")
	}
}

func TestPrepareStopsOnCancel(t *testing.T) {
	tr := acquireTrace(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	in := NewIngest(tr.AppName, tr.NumRanks(), tr.Symbols, tr.Stacks, DefaultOptions())
	if err := in.FeedTrace(ctx, tr); !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled ingest returned %v, want context.Canceled", err)
	}
	in = NewIngest(tr.AppName, tr.NumRanks(), tr.Symbols, tr.Stacks, DefaultOptions())
	if err := in.FeedTrace(context.Background(), tr); err != nil {
		t.Fatal(err)
	}
	if _, err := in.settle(context.Background(), newDiagSink(context.Background())); err != nil || !slices.Equal(in.resident.Ranks, tr.Ranks) {
		t.Fatalf("front half of a valid trace projects from %v, %v; want the trace's own ranks %v", in.resident.Ranks, err, tr.Ranks)
	}
}
