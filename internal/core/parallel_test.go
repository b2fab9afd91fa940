package core

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"sync"
	"testing"
	"time"

	"phasefold/internal/counters"
	"phasefold/internal/exec"
	"phasefold/internal/simapp"
	"phasefold/internal/trace"
)

// modelBytes serializes everything observable about a model — the rendered
// report, the full export view, and the diagnostics — so two analyses can
// be compared byte for byte.
func modelBytes(t testing.TB, tr *trace.Trace, m *Model) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := m.WriteReport(&buf); err != nil {
		t.Fatal(err)
	}
	enc, err := json.Marshal(m.Export(tr))
	if err != nil {
		t.Fatal(err)
	}
	buf.Write(enc)
	for _, d := range m.Diagnostics {
		buf.WriteString(d.String())
		buf.WriteByte('\n')
	}
	return buf.Bytes()
}

// TestAnalyzeParallelIdenticalToSerial is the tentpole determinism
// guarantee: at every Parallelism setting the pipeline must produce a
// byte-identical model — on a pristine trace and across the whole fault
// corpus, where degraded-mode diagnostics and per-rank salvage give the
// merge points many more opportunities to leak scheduling order.
func TestAnalyzeParallelIdenticalToSerial(t *testing.T) {
	base := acquireTrace(t)
	inputs := map[string]*trace.Trace{"pristine": base}
	for _, spec := range []string{
		"drop=0.2", "killrank=0.1", "truncate=0.1", "skew=10ms",
		"wrap=30", "dup=0.1", "reorder=0.1", "zero=0.1", "garble=0.1",
	} {
		inputs[spec] = damage(t, base, spec)
	}
	// A rotating counter schedule folds each cluster into clouds with
	// different X sequences, which the fold sorts separately.
	app, err := simapp.NewApp("multiphase")
	if err != nil {
		t.Fatal(err)
	}
	muxOpt := DefaultOptions()
	muxOpt.Schedule = counters.NewSchedule(counters.DefaultGroups())
	run, err := RunApp(app, simapp.Config{Ranks: 4, Iterations: 120, Seed: 42, FreqGHz: 2}, muxOpt)
	if err != nil {
		t.Fatal(err)
	}
	inputs["multiplexed"] = run.Trace
	for name, tr := range inputs {
		t.Run(name, func(t *testing.T) {
			opt := DefaultOptions()
			opt.Parallelism = 1
			serial, err := Analyze(context.Background(), tr, opt)
			if err != nil {
				t.Fatal(err)
			}
			want := modelBytes(t, tr, serial)
			for _, workers := range []int{2, 4, 8} {
				opt.Parallelism = workers
				m, err := Analyze(context.Background(), tr, opt)
				if err != nil {
					t.Fatalf("parallelism %d: %v", workers, err)
				}
				if got := modelBytes(t, tr, m); !bytes.Equal(got, want) {
					t.Fatalf("parallelism %d produced a different model (%d vs %d bytes)",
						workers, len(got), len(want))
				}
			}
		})
	}
}

// TestDecodeParallelSalvageIdenticalToSerial damages the encoded stream
// itself and checks the rank-parallel salvage decode recovers exactly what
// the serial decode recovers, and that both analyze to the same model.
func TestDecodeParallelSalvageIdenticalToSerial(t *testing.T) {
	base := acquireTrace(t)
	var buf bytes.Buffer
	if err := trace.Encode(&buf, base); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	cut := raw[:len(raw)*4/5] // tail truncation damages the last section

	ser, _, err := trace.Decode(context.Background(), bytes.NewReader(cut),
		trace.DecodeOptions{Salvage: true, Exec: exec.Exec{Parallelism: 1}})
	if err != nil {
		t.Fatal(err)
	}
	par, _, err := trace.Decode(context.Background(), bytes.NewReader(cut),
		trace.DecodeOptions{Salvage: true, Exec: exec.Exec{Parallelism: 8}})
	if err != nil {
		t.Fatal(err)
	}
	opt := DefaultOptions()
	opt.Parallelism = 1
	mSer, err := Analyze(context.Background(), ser, opt)
	if err != nil {
		t.Fatal(err)
	}
	opt.Parallelism = 8
	mPar, err := Analyze(context.Background(), par, opt)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(modelBytes(t, ser, mSer), modelBytes(t, par, mPar)) {
		t.Fatal("salvaged stream analyzes differently serial vs parallel")
	}
}

// TestAnalyzeParallelStress runs many concurrent parallel analyses of the
// same trace — under -race this is the scheduler-interleaving probe for the
// worker pools, the folding scratch pool, and the shared span machinery.
func TestAnalyzeParallelStress(t *testing.T) {
	tr := acquireTrace(t)
	opt := DefaultOptions()
	opt.Parallelism = 4
	want, err := Analyze(context.Background(), tr, opt)
	if err != nil {
		t.Fatal(err)
	}
	wantBytes := modelBytes(t, tr, want)

	const runs = 8
	var wg sync.WaitGroup
	errs := make([]error, runs)
	for i := 0; i < runs; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			m, err := Analyze(context.Background(), tr, opt)
			if err != nil {
				errs[i] = err
				return
			}
			var buf bytes.Buffer
			if err := m.WriteReport(&buf); err != nil {
				errs[i] = err
				return
			}
			enc, err := json.Marshal(m.Export(tr))
			if err != nil {
				errs[i] = err
				return
			}
			buf.Write(enc)
			for _, d := range m.Diagnostics {
				buf.WriteString(d.String())
				buf.WriteByte('\n')
			}
			if !bytes.Equal(buf.Bytes(), wantBytes) {
				errs[i] = fmt.Errorf("concurrent run %d produced a different model", i)
			}
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
}

// TestAnalyzeParallelCancelsPromptly cancels a wide parallel analysis
// mid-flight: all workers must drain and the call return well inside the
// 100ms cancellation budget.
func TestAnalyzeParallelCancelsPromptly(t *testing.T) {
	tr := acquireTrace(t)
	opt := DefaultOptions()
	opt.Parallelism = 8
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := Analyze(ctx, tr, opt)
		done <- err
	}()
	time.Sleep(10 * time.Millisecond)
	cancel()
	start := time.Now()
	select {
	case err := <-done:
		if err != nil && ctx.Err() == nil {
			t.Fatalf("analysis failed for a non-cancellation reason: %v", err)
		}
		if d := time.Since(start); d > 100*time.Millisecond {
			t.Errorf("parallel cancellation took %v after cancel, want under 100ms", d)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("parallel analysis ignored cancellation")
	}
}

// benchTrace acquires one trace of the given scale for the parallel
// benchmarks.
func parBenchTrace(b *testing.B, ranks, iters int) *trace.Trace {
	b.Helper()
	app, err := simapp.NewApp("cg")
	if err != nil {
		b.Fatal(err)
	}
	cfg := simapp.Config{Ranks: ranks, Iterations: iters, Seed: 42, FreqGHz: 2}
	run, err := RunApp(app, cfg, DefaultOptions())
	if err != nil {
		b.Fatal(err)
	}
	return run.Trace
}

// BenchmarkAnalyzeParallel measures the analysis pipeline at 1/2/4/8
// workers over a small and a large trace; the 1-worker rows are the serial
// baseline the speedup acceptance is computed against.
func BenchmarkAnalyzeParallel(b *testing.B) {
	sizes := []struct {
		name         string
		ranks, iters int
	}{
		{"small", 2, 60},
		{"large", 8, 400},
	}
	for _, size := range sizes {
		tr := parBenchTrace(b, size.ranks, size.iters)
		for _, workers := range []int{1, 2, 4, 8} {
			opt := DefaultOptions()
			opt.Parallelism = workers
			b.Run(fmt.Sprintf("%s/workers=%d", size.name, workers), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := Analyze(context.Background(), tr, opt); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
