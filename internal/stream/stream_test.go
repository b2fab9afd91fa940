package stream

import (
	"bytes"
	"context"
	"errors"
	"reflect"
	"strings"
	"testing"

	"phasefold/internal/callstack"
	"phasefold/internal/core"
	"phasefold/internal/counters"
	"phasefold/internal/faults"
	"phasefold/internal/sim"
	"phasefold/internal/simapp"
	"phasefold/internal/trace"
)

// genTrace runs a simulated workload and returns its trace.
func genTrace(t *testing.T, name string, iters int, seed uint64) *trace.Trace {
	t.Helper()
	app, err := simapp.NewApp(name)
	if err != nil {
		t.Fatal(err)
	}
	cfg := simapp.Config{Ranks: 4, Iterations: iters, Seed: seed, FreqGHz: 2}
	run, err := core.RunApp(app, cfg, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	return run.Trace
}

// sessionFor opens a session bound to tr's header.
func sessionFor(t *testing.T, ctx context.Context, tr *trace.Trace, opt Options) *Session {
	t.Helper()
	s, err := New(ctx, Header{App: tr.AppName, NumRanks: tr.NumRanks(), Symbols: tr.Symbols, Stacks: tr.Stacks}, opt)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// mustEqualModels asserts the streamed model is byte-identical to the batch
// one — reflect.DeepEqual over the full model graph.
func mustEqualModels(t *testing.T, batch, streamed *core.Model) {
	t.Helper()
	if !reflect.DeepEqual(batch, streamed) {
		t.Fatalf("streamed model differs from batch:\nbatch:    %+v\nstreamed: %+v", batch, streamed)
	}
}

func TestFeedTraceMatchesBatch(t *testing.T) {
	tr := genTrace(t, "multiphase", 200, 42)
	opt := core.DefaultOptions()
	batch, err := core.Analyze(context.Background(), tr, opt)
	if err != nil {
		t.Fatal(err)
	}
	s := sessionFor(t, context.Background(), tr, Options{Core: opt})
	if err := s.FeedTrace(tr); err != nil {
		t.Fatal(err)
	}
	streamed, err := s.Done()
	if err != nil {
		t.Fatal(err)
	}
	mustEqualModels(t, batch, streamed)
}

func TestConsumeMatchesBatch(t *testing.T) {
	tr := genTrace(t, "cg", 150, 11)
	var buf bytes.Buffer
	if err := trace.Encode(&buf, tr); err != nil {
		t.Fatal(err)
	}
	opt := core.DefaultOptions()
	// The batch reference consumes the same bytes the session does: the
	// container codec canonicalizes the stack table (duplicate-content
	// stacks collapse to one ID), so the byte-identity contract is between
	// the two consumers of a stream, not across an encode round-trip.
	dec, _, err := trace.Decode(context.Background(), bytes.NewReader(buf.Bytes()), trace.DecodeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	batch, err := core.Analyze(context.Background(), dec, opt)
	if err != nil {
		t.Fatal(err)
	}
	for _, limit := range []int{1, 64, 1 << 20} {
		cr, err := trace.NewChunkReader(context.Background(), bytes.NewReader(buf.Bytes()), trace.DecodeOptions{})
		if err != nil {
			t.Fatal(err)
		}
		s, err := New(context.Background(), Header{App: cr.App(), NumRanks: cr.NumRanks(), Symbols: cr.Symbols(), Stacks: cr.Stacks()}, Options{Core: opt})
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Consume(cr, limit); err != nil {
			t.Fatal(err)
		}
		streamed, err := s.Done()
		if err != nil {
			t.Fatal(err)
		}
		mustEqualModels(t, batch, streamed)
	}
}

func TestFeedTraceFaultedMatchesBatch(t *testing.T) {
	// Trace-level faults drive the trace through sanitize and rank-drop
	// repair; FeedTrace must replay the exact batch repair path.
	for _, spec := range []string{"wrap=40", "dup=0.05", "zero=0.02", "drop=0.2,skew=50us"} {
		tr := genTrace(t, "multiphase", 150, 7)
		chain, err := faults.Parse(spec, 99)
		if err != nil {
			t.Fatal(err)
		}
		chain.ApplyTrace(tr)
		opt := core.DefaultOptions()
		batch, err := core.Analyze(context.Background(), tr, opt)
		if err != nil {
			t.Fatalf("%s: batch: %v", spec, err)
		}
		s := sessionFor(t, context.Background(), tr, Options{Core: opt})
		if err := s.FeedTrace(tr); err != nil {
			t.Fatalf("%s: feed: %v", spec, err)
		}
		streamed, err := s.Done()
		if err != nil {
			t.Fatalf("%s: done: %v", spec, err)
		}
		mustEqualModels(t, batch, streamed)
	}
}

func TestSnapshotsDoNotPerturbResult(t *testing.T) {
	tr := genTrace(t, "multiphase", 200, 42)
	opt := core.DefaultOptions()
	batch, err := core.Analyze(context.Background(), tr, opt)
	if err != nil {
		t.Fatal(err)
	}
	s := sessionFor(t, context.Background(), tr, Options{Core: opt, TrainAfter: 64, SnapshotEvery: 32})
	// Feed rank by rank, snapshotting between feeds so provisional labels
	// are written mid-stream.
	var lastSnap *Snapshot
	for r := 0; r < tr.NumRanks(); r++ {
		rd := tr.Ranks[r]
		if err := s.Feed(trace.Chunk{Rank: r, Events: rd.Events, Samples: rd.Samples}); err != nil {
			t.Fatal(err)
		}
		lastSnap = s.Snapshot()
	}
	if lastSnap == nil || !lastSnap.Trained {
		t.Fatalf("expected a trained snapshot, got %+v", lastSnap)
	}
	if lastSnap.Clusters == 0 || len(lastSnap.States) == 0 {
		t.Fatalf("snapshot carries no provisional clusters: %+v", lastSnap)
	}
	streamed, err := s.Done()
	if err != nil {
		t.Fatal(err)
	}
	mustEqualModels(t, batch, streamed)
}

func TestWindowBound(t *testing.T) {
	s, err := New(context.Background(), Header{App: "x", NumRanks: 1}, Options{Core: core.DefaultOptions(), Window: 4})
	if err != nil {
		t.Fatal(err)
	}
	// Samples with no burst to attach to pend; exceeding the window fails.
	var smps []trace.Sample
	for i := 0; i < 8; i++ {
		smps = append(smps, trace.Sample{Time: sim.Time(1000 + 10*i), Stack: callstack.NoStack})
	}
	err = s.Feed(trace.Chunk{Rank: 0, Samples: smps})
	if !errors.Is(err, ErrWindow) {
		t.Fatalf("got %v, want ErrWindow", err)
	}
	if s.PeakBufferedRecords() <= 4 {
		t.Fatalf("peak %d, want > window", s.PeakBufferedRecords())
	}
}

func TestSessionCancellation(t *testing.T) {
	tr := genTrace(t, "multiphase", 50, 3)
	ctx, cancel := context.WithCancel(context.Background())
	s := sessionFor(t, ctx, tr, Options{Core: core.DefaultOptions()})
	cancel()
	if err := s.Feed(trace.Chunk{Rank: 0, Events: tr.Ranks[0].Events}); !errors.Is(err, context.Canceled) {
		t.Fatalf("Feed after cancel: got %v", err)
	}
}

// TestStreamDropsMergedTimelineRegression: a sample whose counter falls
// below the preceding event's yet stays above the previous sample's breaks
// monotonicity only on the merged event+sample timeline. Batch repairs it
// (sanitize/counter-regress); the streamed session must not pass it as
// pristine, so it drops the rank with a validate diagnostic and the
// daemon's pristine gate sends the upload to the queue.
func TestStreamDropsMergedTimelineRegression(t *testing.T) {
	tr := genTrace(t, "multiphase", 100, 11)
	rd := tr.Ranks[1]
	damaged := -1
	ei := 0
	for k := 1; k < len(rd.Samples) && damaged < 0; k++ {
		s := &rd.Samples[k]
		for ei < len(rd.Events) && rd.Events[ei].Time <= s.Time {
			ei++
		}
		if ei == 0 || rd.Events[ei-1].Time <= rd.Samples[k-1].Time {
			continue // no event between this sample and the previous one
		}
		ev, ok1 := rd.Events[ei-1].Counters.Get(counters.Instructions)
		prev, ok2 := rd.Samples[k-1].Counters.Get(counters.Instructions)
		if _, ok3 := s.Counters.Get(counters.Instructions); ok1 && ok2 && ok3 && ev-1 > prev {
			s.Counters.Put(counters.Instructions, ev-1)
			damaged = k
		}
	}
	if damaged < 0 {
		t.Fatal("no rank-1 sample follows an event it could regress below")
	}
	opt := core.DefaultOptions()
	batch, err := core.Analyze(context.Background(), tr, opt)
	if err != nil {
		t.Fatal(err)
	}
	if !hasDiagnostic(batch, "sanitize", "counter-regress") {
		t.Fatalf("batch did not repair the regression: %v", batch.Diagnostics)
	}

	s := sessionFor(t, context.Background(), tr, Options{Core: opt})
	for r, rd := range tr.Ranks {
		if err := s.Feed(trace.Chunk{Rank: r, Events: rd.Events, Samples: rd.Samples}); err != nil {
			t.Fatal(err)
		}
	}
	streamed, err := s.Done()
	if err != nil {
		t.Fatal(err)
	}
	if !hasDiagnostic(streamed, "validate", "rank 1 sample") {
		t.Fatalf("streamed session passed the regression (sample %d): %v", damaged, streamed.Diagnostics)
	}
	for _, b := range streamed.Bursts {
		if b.Rank == 1 {
			t.Fatal("the dropped rank's bursts reached the model")
		}
	}
}

// TestStreamRejectsLateEvent: Feed takes a rank's records in per-rank
// order, every event before the rank's samples of the same or a later time.
// A late event whose counter sits above the rank's last sample breaks
// monotonicity only on the merged timeline; it is rejected as out of order,
// failing a strict session and dropping the rank in a lenient one.
func TestStreamRejectsLateEvent(t *testing.T) {
	tr := genTrace(t, "multiphase", 100, 11)
	rd := tr.Ranks[1]
	last := rd.Events[len(rd.Events)-1]
	v, ok := last.Counters.Get(counters.Instructions)
	if !ok {
		t.Fatal("rank 1's last event captured no instructions")
	}
	// A sample after every event, then an event between the two.
	tail := trace.Sample{Time: last.Time + 10, Rank: 1, Stack: callstack.NoStack, Counters: last.Counters}
	late := trace.Event{Time: last.Time + 5, Rank: 1, Type: trace.IterEnd, Counters: last.Counters}
	late.Counters.Put(counters.Instructions, v+1)
	for _, strict := range []bool{false, true} {
		opt := core.DefaultOptions()
		opt.Strict = strict
		s := sessionFor(t, context.Background(), tr, Options{Core: opt})
		for r, rd := range tr.Ranks {
			c := trace.Chunk{Rank: r, Events: rd.Events, Samples: rd.Samples}
			if r == 1 {
				c.Samples = append(rd.Samples[:len(rd.Samples):len(rd.Samples)], tail)
			}
			if err := s.Feed(c); err != nil {
				t.Fatal(err)
			}
		}
		err := s.Feed(trace.Chunk{Rank: 1, Events: []trace.Event{late}})
		if strict {
			if !errors.Is(err, trace.ErrInvalid) || !strings.Contains(err.Error(), "out of order") {
				t.Fatalf("strict: late event fed as %v, want an out-of-order ErrInvalid", err)
			}
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		m, err := s.Done()
		if err != nil {
			t.Fatal(err)
		}
		if !hasDiagnostic(m, "validate", "out of order") {
			t.Fatalf("lenient: late event passed: %v", m.Diagnostics)
		}
		for _, b := range m.Bursts {
			if b.Rank == 1 {
				t.Fatal("lenient: the dropped rank's bursts reached the model")
			}
		}
	}
}

// hasDiagnostic reports whether m carries a diagnostic of stage whose
// message contains substr.
func hasDiagnostic(m *core.Model, stage, substr string) bool {
	for _, d := range m.Diagnostics {
		if d.Stage == stage && strings.Contains(d.Message, substr) {
			return true
		}
	}
	return false
}
