package stream

import (
	"bytes"
	"context"
	"errors"
	"io"
	"reflect"
	"runtime"
	"testing"
	"time"

	"phasefold/internal/callstack"
	"phasefold/internal/core"
	"phasefold/internal/faults"
	"phasefold/internal/sim"
	"phasefold/internal/trace"
)

// encode returns tr's binary container.
func encode(t *testing.T, tr *trace.Trace) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := trace.Encode(&buf, tr); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// serialConsume is the reference Consume: Next and Feed back to back on the
// caller's goroutine, the report read at end of stream.
func serialConsume(s *Session, cr *trace.ChunkReader, limit int, fed func()) error {
	for {
		c, err := cr.Next(limit)
		if err == io.EOF {
			s.mu.Lock()
			s.report = cr.Report()
			s.mu.Unlock()
			return nil
		}
		if err != nil {
			return err
		}
		if err := s.Feed(c); err != nil {
			return err
		}
		if fed != nil {
			fed()
		}
	}
}

// consumeCase is one exit path of Consume.
type consumeCase struct {
	name   string
	data   []byte
	decode trace.DecodeOptions
	opt    Options
	limit  int
	// cancelAfter, when positive, cancels the session's context once that
	// many chunks were fed.
	cancelAfter int
	wantErr     error // nil: the stream must reach its end
}

// run consumes the case's bytes through consume and returns the session's
// salvage report, the model when the stream ended, and Consume's error.
func (c consumeCase) run(t *testing.T, consume func(*Session, *trace.ChunkReader, int, func()) error) (*trace.SalvageReport, *core.Model, error) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cr, err := trace.NewChunkReader(ctx, bytes.NewReader(c.data), c.decode)
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(ctx, Header{App: cr.App(), NumRanks: cr.NumRanks(), Symbols: cr.Symbols(), Stacks: cr.Stacks()}, c.opt)
	if err != nil {
		t.Fatal(err)
	}
	fed := 0
	err = consume(s, cr, c.limit, func() {
		if fed++; fed == c.cancelAfter {
			cancel()
		}
	})
	if err != nil {
		return s.SalvageReport(), nil, err
	}
	m, err := s.Done()
	if err != nil {
		t.Fatal(err)
	}
	return s.SalvageReport(), m, nil
}

// mustHaveJoined fails unless Consume's decoder had finished when Consume
// returned, and waits for the goroutine count to fall back to want, failing
// after a second.
func mustHaveJoined(t *testing.T, name string, want int) {
	t.Helper()
	if n := decoding.Load(); n != 0 {
		t.Fatalf("%s: %d decoders still running after Consume returned", name, n)
	}
	deadline := time.Now().Add(time.Second)
	for runtime.NumGoroutine() > want {
		if time.Now().After(deadline) {
			t.Fatalf("%s: %d goroutines after Consume, %d before", name, runtime.NumGoroutine(), want)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestConsumeJoinsDecoder drives Consume down each of its exit paths — end
// of stream, a strict decode error mid-section, a salvaged damaged stream,
// the record window, a strict validation failure, and a cancel mid-stream.
// Each returns what the serial loop of Next and Feed returns, leaves no
// goroutine behind, and keeps a salvage report only when the stream reached
// its end. A panic in the reader is raised on Consume's caller.
func TestConsumeJoinsDecoder(t *testing.T) {
	clean := encode(t, genTrace(t, "multiphase", 60, 5))
	truncated := clean[:len(clean)*3/5]
	dup := genTrace(t, "multiphase", 60, 5)
	chain, err := faults.Parse("dup=0.05", 3)
	if err != nil {
		t.Fatal(err)
	}
	chain.ApplyTrace(dup)
	// One rank of samples and no events: nothing closes a burst, so every
	// sample stays buffered.
	orphans := trace.New("orphans", 1, callstack.NewSymbolTable(), callstack.NewInterner())
	for i := 0; i < 16; i++ {
		orphans.Ranks[0].Samples = append(orphans.Ranks[0].Samples, trace.Sample{Time: sim.Time(1000 + 10*i), Stack: callstack.NoStack})
	}
	lenient, strict := core.DefaultOptions(), core.DefaultOptions()
	strict.Strict = true
	cases := []consumeCase{
		{name: "eof", data: clean, opt: Options{Core: lenient}, limit: 64},
		{name: "decode-error", data: truncated, opt: Options{Core: lenient}, limit: 64, wantErr: trace.ErrTruncated},
		{name: "salvage", data: truncated, decode: trace.DecodeOptions{Salvage: true}, opt: Options{Core: lenient}, limit: 64},
		{name: "window", data: encode(t, orphans), opt: Options{Core: lenient, Window: 4}, limit: 2, wantErr: ErrWindow},
		{name: "strict-validation", data: encode(t, dup), opt: Options{Core: strict}, limit: 64, wantErr: trace.ErrInvalid},
		{name: "cancel", data: clean, opt: Options{Core: lenient}, limit: 16, cancelAfter: 3, wantErr: context.Canceled},
	}
	// A slow reader: the decoder is mid-read whenever the feed fails.
	testHookNext = func() { time.Sleep(100 * time.Microsecond) }
	defer func() { testHookNext = nil }()
	for _, c := range cases {
		wantRep, wantModel, wantErr := c.run(t, serialConsume)
		before := runtime.NumGoroutine()
		gotRep, gotModel, gotErr := c.run(t, (*Session).Consume)
		mustHaveJoined(t, c.name, before)
		switch {
		case c.wantErr == nil && (wantErr != nil || gotErr != nil):
			t.Fatalf("%s: serial %v, Consume %v, want both nil", c.name, wantErr, gotErr)
		case c.wantErr != nil && (!errors.Is(wantErr, c.wantErr) || !errors.Is(gotErr, c.wantErr)):
			t.Fatalf("%s: serial %v, Consume %v, want both %v", c.name, wantErr, gotErr, c.wantErr)
		case c.name != "cancel" && (wantErr == nil) != (gotErr == nil),
			c.name != "cancel" && wantErr != nil && wantErr.Error() != gotErr.Error():
			// A cancel may reach the decoder before the feed, or the
			// feed first; elsewhere the error is the serial loop's.
			t.Fatalf("%s: Consume returned %v, serial %v", c.name, gotErr, wantErr)
		}
		if gotErr != nil && gotRep != nil {
			t.Fatalf("%s: failed Consume kept a salvage report", c.name)
		}
		if (c.decode.Salvage && gotErr == nil) != (gotRep != nil) {
			t.Fatalf("%s: salvage report %v", c.name, gotRep)
		}
		if !reflect.DeepEqual(wantRep, gotRep) {
			t.Fatalf("%s: report %v, serial %v", c.name, gotRep, wantRep)
		}
		if gotErr == nil {
			mustEqualModels(t, wantModel, gotModel)
		}
	}
	consumeRaisesDecoderPanic(t, clean)
}

// consumeRaisesDecoderPanic: a panic in the reader surfaces on the
// goroutine that called Consume, after the decoder goroutine has exited.
func consumeRaisesDecoderPanic(t *testing.T, data []byte) {
	calls := 0
	testHookNext = func() {
		if calls++; calls == 3 {
			panic("decoder boom")
		}
	}
	defer func() { testHookNext = nil }()
	cr, err := trace.NewChunkReader(context.Background(), bytes.NewReader(data), trace.DecodeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(context.Background(), Header{App: cr.App(), NumRanks: cr.NumRanks(), Symbols: cr.Symbols(), Stacks: cr.Stacks()}, Options{Core: core.DefaultOptions()})
	if err != nil {
		t.Fatal(err)
	}
	before := runtime.NumGoroutine()
	p := func() (p any) {
		defer func() { p = recover() }()
		s.Consume(cr, 16, nil)
		return nil
	}()
	if p != "decoder boom" {
		t.Fatalf("recovered %v on the caller's goroutine, want the decoder's panic", p)
	}
	mustHaveJoined(t, "panic", before)
	if s.SalvageReport() != nil {
		t.Fatal("a panicked Consume kept a salvage report")
	}
}
