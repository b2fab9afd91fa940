package phasefold_test

import (
	"bytes"
	"context"
	"runtime"
	"runtime/metrics"
	"sync"
	"testing"

	"phasefold"
)

// BenchmarkStreamConsume measures the streaming engine end to end: one
// encoded trace consumed through phasefold.Stream at growing sizes. Besides
// ns/op it reports records/s (decode + incremental analysis throughput),
// peak_records (the session's high-water buffer of samples waiting for a
// burst to close, 1 in container order) and held_B/record: the live heap
// the session holds when Consume returns, above a baseline taken before the
// session opened, per input record. The session keeps the burst list, each
// burst's folded rows and the events its samples have not passed yet, so
// what it holds grows with the trace, linearly: CI folds these figures into
// BENCH_perf.json and fails when held_B/record at 16x exceeds its 1x value
// by more than the bound ci.yml states.
//
//	go test -run '^$' -bench BenchmarkStreamConsume -benchtime 1x .
func BenchmarkStreamConsume(b *testing.B) {
	for _, sz := range []struct {
		name  string
		iters int
	}{
		{"size=1x", 40},
		{"size=4x", 160},
		{"size=16x", 640},
	} {
		b.Run(sz.name, func(b *testing.B) { benchStreamConsume(b, sz.iters) })
	}
}

// streamBenchInput caches the encoded traces across benchmark runs (the
// simulated acquisition dominates setup time).
var streamBenchInputs sync.Map // iters → streamInput

type streamInput struct {
	data    []byte
	records int
}

func benchStreamConsume(b *testing.B, iters int) {
	in := streamBenchInput(b, iters)
	ctx := context.Background()
	b.SetBytes(int64(len(in.data)))
	var peak int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sess, err := phasefold.Stream(ctx)
		if err != nil {
			b.Fatal(err)
		}
		if err := sess.Consume(bytes.NewReader(in.data)); err != nil {
			b.Fatal(err)
		}
		if _, err := sess.Done(); err != nil {
			b.Fatal(err)
		}
		peak = sess.PeakBufferedRecords()
	}
	b.StopTimer()
	if peak <= 0 {
		b.Fatal("session reports zero peak buffering")
	}
	b.ReportMetric(float64(peak), "peak_records")
	b.ReportMetric(float64(heldAfterConsume(b, in.data))/float64(in.records), "held_B/record")
	b.ReportMetric(float64(in.records)*float64(b.N)/b.Elapsed().Seconds(), "records/s")
}

// heldAfterConsume consumes data through one more session, outside the
// timed loop (its collections would empty the pools the timed sessions
// reuse), and returns the live heap the session holds when Consume returns,
// above what was live before it opened.
func heldAfterConsume(b *testing.B, data []byte) uint64 {
	base := liveHeap()
	sess, err := phasefold.Stream(context.Background())
	if err != nil {
		b.Fatal(err)
	}
	if err := sess.Consume(bytes.NewReader(data)); err != nil {
		b.Fatal(err)
	}
	held := liveHeap()
	runtime.KeepAlive(sess)
	if held < base {
		return 0
	}
	return held - base
}

// liveHeap collects garbage and returns the bytes the heap still holds.
// Two collections: pooled scratch survives the first one.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

func streamBenchInput(b *testing.B, iters int) streamInput {
	b.Helper()
	if v, ok := streamBenchInputs.Load(iters); ok {
		return v.(streamInput)
	}
	app, err := phasefold.NewApp("multiphase")
	if err != nil {
		b.Fatal(err)
	}
	cfg := phasefold.DefaultConfig()
	cfg.Ranks, cfg.Iterations = 4, iters
	run, err := phasefold.RunApp(app, cfg, phasefold.DefaultOptions())
	if err != nil {
		b.Fatal(err)
	}
	records := 0
	for _, rd := range run.Trace.Ranks {
		records += len(rd.Events) + len(rd.Samples)
	}
	var buf bytes.Buffer
	if err := phasefold.EncodeTrace(&buf, run.Trace); err != nil {
		b.Fatal(err)
	}
	in := streamInput{data: buf.Bytes(), records: records}
	streamBenchInputs.Store(iters, in)
	return in
}
