package trace

import (
	"bytes"
	"context"
	"errors"
	"testing"
	"time"

	"phasefold/internal/counters"
)

// bigEncodedTrace encodes a trace large enough that a full decode takes well
// over the cancellation deadline used below.
func bigEncodedTrace(tb testing.TB) []byte {
	tb.Helper()
	tr := fuzzSeedTrace(tb)
	base := tr.Ranks[0]
	for i := 0; i < 200000; i++ {
		ctr := counters.AllMissing()
		ctr.Put(counters.Instructions, int64(100+i))
		tr.AddSample(Sample{Time: 25, Rank: 0, Counters: ctr, Stack: base.Samples[0].Stack})
	}
	var buf bytes.Buffer
	if err := Encode(&buf, tr); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

func TestDecodeCancelsPromptly(t *testing.T) {
	data := bigEncodedTrace(t)

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	start := time.Now()
	_, _, err := Decode(ctx, bytes.NewReader(data), DecodeOptions{})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled decode returned %v, want context.Canceled", err)
	}
	if d := time.Since(start); d > 100*time.Millisecond {
		t.Errorf("cancellation took %v, want under 100ms", d)
	}

	// Mid-flight: cancel while the decoder is in its record loop.
	ctx, cancel = context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, _, err := Decode(ctx, bytes.NewReader(data), DecodeOptions{})
		done <- err
	}()
	cancel()
	start = time.Now()
	select {
	case err := <-done:
		// The decode may have raced to completion before the cancel landed;
		// what it must never do is return some third, undefined state.
		if err != nil && !errors.Is(err, context.Canceled) {
			t.Fatalf("mid-flight cancel returned %v, want context.Canceled or nil", err)
		}
		if d := time.Since(start); d > 100*time.Millisecond {
			t.Errorf("mid-flight cancellation took %v after cancel, want under 100ms", d)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("decode ignored cancellation")
	}
}

func TestDecodeSalvageNeverAbsorbsCancellation(t *testing.T) {
	data := bigEncodedTrace(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, _, err := Decode(ctx, bytes.NewReader(data), DecodeOptions{Salvage: true})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("salvage decode turned cancellation into %v, want context.Canceled", err)
	}
}

func TestDecodeTextCancels(t *testing.T) {
	var buf bytes.Buffer
	if err := EncodeText(&buf, fuzzSeedTrace(t)); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, _, err := DecodeText(ctx, bytes.NewReader(buf.Bytes()), DecodeOptions{})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled text decode returned %v, want context.Canceled", err)
	}
}

func TestDecodeDeadlinePropagates(t *testing.T) {
	data := bigEncodedTrace(t)
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	_, _, err := Decode(ctx, bytes.NewReader(data), DecodeOptions{})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("expired decode returned %v, want context.DeadlineExceeded", err)
	}
}
