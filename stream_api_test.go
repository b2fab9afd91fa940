package phasefold_test

import (
	"bytes"
	"context"
	"errors"
	"reflect"
	"testing"
	"time"

	"phasefold"
	"phasefold/internal/faults"
)

// encodedTrace simulates a workload, optionally damages the trace and the
// encoded stream with the fault spec, and returns the final byte stream.
func encodedTrace(t *testing.T, name string, iters int, spec string, seed uint64) []byte {
	t.Helper()
	return encodedTraceWith(t, name, iters, spec, seed, phasefold.DefaultOptions())
}

// encodedTraceWith is encodedTrace acquiring under opt (e.g. a multiplexed
// counter schedule).
func encodedTraceWith(t *testing.T, name string, iters int, spec string, seed uint64, opt phasefold.Options) []byte {
	t.Helper()
	app, err := phasefold.NewApp(name)
	if err != nil {
		t.Fatal(err)
	}
	cfg := phasefold.DefaultConfig()
	cfg.Iterations = iters
	run, err := phasefold.RunApp(app, cfg, opt)
	if err != nil {
		t.Fatal(err)
	}
	chain, err := faults.Parse(spec, seed)
	if err != nil {
		t.Fatal(err)
	}
	chain.ApplyTrace(run.Trace)
	var buf bytes.Buffer
	if err := phasefold.EncodeTrace(&buf, run.Trace); err != nil {
		t.Fatal(err)
	}
	return chain.ApplyStream(buf.Bytes())
}

// TestStreamEquivalenceTable drives the same byte stream through the batch
// path (Decode then Analyze) and the streaming path (Stream + Consume) across
// the whole fault corpus and requires byte-identical models. Both references
// consume the same encoded bytes: the container codec canonicalizes the stack
// table, so the contract is between two consumers of one stream.
func TestStreamEquivalenceTable(t *testing.T) {
	cases := []struct {
		name    string
		spec    string
		salvage bool
		mux     bool
	}{
		{"pristine", "", false, false},
		// A rotating counter schedule folds each cluster into clouds with
		// different X sequences, which the fold sorts separately.
		{"multiplexed", "", false, true},
		{"drop", "drop=0.2", false, false},
		{"killrank", "killrank=0.3", false, false},
		{"truncate", "truncate=0.5", false, false},
		{"skew", "skew=50us", false, false},
		{"wrap", "wrap=40", false, false},
		{"dup", "dup=0.05", false, false},
		{"reorder", "reorder=0.02", false, false},
		{"zero", "zero=0.02", false, false},
		{"garble", "garble=0.02", false, false},
		{"salvage-chop", "chop=0.6", true, false},
		{"salvage-corrupt", "corrupt=0.0002", true, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			acq := phasefold.DefaultOptions()
			if tc.mux {
				acq = phasefold.MultiplexedOptions()
			}
			raw := encodedTraceWith(t, "multiphase", 150, tc.spec, 7, acq)
			var opts []phasefold.Option
			if tc.salvage {
				opts = append(opts, phasefold.WithSalvage())
			}

			tr, rep, decErr := phasefold.Decode(context.Background(), bytes.NewReader(raw), opts...)
			var batch *phasefold.Model
			if decErr == nil {
				batch, decErr = phasefold.Analyze(context.Background(), tr)
			}

			sess, err := phasefold.Stream(context.Background(), opts...)
			if err != nil {
				t.Fatal(err)
			}
			streamErr := sess.Consume(bytes.NewReader(raw))
			var streamed *phasefold.Model
			if streamErr == nil {
				streamed, streamErr = sess.Done()
			}

			// The byte-identity guarantee is prefix-complete: it holds whenever
			// the records that reach the analyzer needed no in-place repair.
			// A salvage that rewrote records (Sanitize problems in the report)
			// is outside it — whole-rank repairs such as re-sorting cannot be
			// replayed inside a bounded record window, which is why phasefoldd
			// gates its streamed fast path on a pristine decode. Such runs must
			// still terminate deterministically with a model or a clean error.
			if rep != nil && len(rep.Problems) > 0 {
				if streamErr == nil && streamed == nil {
					t.Fatal("repairing salvage returned neither model nor error")
				}
				return
			}
			if (decErr == nil) != (streamErr == nil) {
				t.Fatalf("paths disagree: batch err %v, stream err %v", decErr, streamErr)
			}
			if decErr != nil {
				return
			}
			if !reflect.DeepEqual(batch, streamed) {
				t.Fatalf("streamed model diverges from batch:\nbatch:    %+v\nstreamed: %+v", batch, streamed)
			}
		})
	}
}

// TestStreamConsumeCancelsPromptly mirrors the decoder's cancellation
// contract at the session level: a canceled context must surface within
// 100ms, never as a partially analyzed model.
func TestStreamConsumeCancelsPromptly(t *testing.T) {
	raw := encodedTrace(t, "multiphase", 3000, "", 0)

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	sess, err := phasefold.Stream(ctx)
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if err := sess.Consume(bytes.NewReader(raw)); !errors.Is(err, phasefold.ErrCanceled) {
		t.Fatalf("canceled consume returned %v, want ErrCanceled", err)
	}
	if d := time.Since(start); d > 100*time.Millisecond {
		t.Errorf("cancellation took %v, want under 100ms", d)
	}

	// Mid-flight: cancel while the session is draining chunks.
	ctx, cancel = context.WithCancel(context.Background())
	sess, err = phasefold.Stream(ctx)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- sess.Consume(bytes.NewReader(raw)) }()
	cancel()
	start = time.Now()
	select {
	case err := <-done:
		// The consume may have raced to completion before the cancel landed;
		// it must never return some third, undefined state.
		if err != nil && !errors.Is(err, phasefold.ErrCanceled) {
			t.Fatalf("mid-flight cancel returned %v, want ErrCanceled or nil", err)
		}
		if d := time.Since(start); d > 100*time.Millisecond {
			t.Errorf("mid-flight cancellation took %v after cancel, want under 100ms", d)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("consume ignored cancellation")
	}
}

// TestStreamBoundedMemory checks the record window: a session never buffers
// the whole trace, peak buffering stays flat as the trace grows, and an
// undersized window fails with ErrWindow instead of buffering past it.
func TestStreamBoundedMemory(t *testing.T) {
	peakFor := func(iters int) (int, int) {
		raw := encodedTrace(t, "multiphase", iters, "", 0)
		sess, err := phasefold.Stream(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if err := sess.Consume(bytes.NewReader(raw)); err != nil {
			t.Fatal(err)
		}
		if _, err := sess.Done(); err != nil {
			t.Fatal(err)
		}
		return sess.PeakBufferedRecords(), len(raw)
	}
	peak1, bytes1 := peakFor(200)
	peak4, bytes4 := peakFor(800)
	if bytes4 < 3*bytes1 {
		t.Fatalf("4x trace is not 4x the bytes: %d vs %d", bytes4, bytes1)
	}
	if peak1 == 0 || peak4 == 0 {
		t.Fatal("session reports zero peak buffering")
	}
	if peak4 > 2*peak1 {
		t.Fatalf("peak buffering grows with trace length: %d at 1x, %d at 4x", peak1, peak4)
	}

	// An undersized window fails the session instead of buffering past it:
	// samples with no burst to attach to (their events have not arrived yet)
	// are exactly the records a session must hold.
	sess, err := phasefold.Stream(context.Background(), phasefold.WithWindow(4))
	if err != nil {
		t.Fatal(err)
	}
	if err := sess.Open(phasefold.StreamHeader{App: "x", NumRanks: 1}); err != nil {
		t.Fatal(err)
	}
	var smps []phasefold.Sample
	for i := 0; i < 8; i++ {
		smps = append(smps, phasefold.Sample{Time: phasefold.Time(1000 + 10*i), Stack: phasefold.NoStack})
	}
	if err := sess.Feed(phasefold.Chunk{Rank: 0, Samples: smps}); !errors.Is(err, phasefold.ErrWindow) {
		t.Fatalf("undersized window returned %v, want ErrWindow", err)
	}
}
