package trace

import (
	"bytes"
	"context"
	"errors"
	"io"
	"testing"
)

// drainChunks pulls every chunk from cr at the given limit and reassembles
// the records into per-rank slices for comparison with a batch decode.
func drainChunks(t *testing.T, cr *ChunkReader, limit int) (events [][]Event, samples [][]Sample) {
	t.Helper()
	events = make([][]Event, cr.NumRanks())
	samples = make([][]Sample, cr.NumRanks())
	for {
		c, err := cr.Next(limit)
		if err == io.EOF {
			return events, samples
		}
		if err != nil {
			t.Fatalf("Next: %v", err)
		}
		if c.Records() == 0 {
			t.Fatal("Next returned an empty chunk instead of advancing")
		}
		events[c.Rank] = append(events[c.Rank], c.Events...)
		samples[c.Rank] = append(samples[c.Rank], c.Samples...)
	}
}

// Chunked decoding at any limit must reproduce the batch decoder's records
// bit for bit.
func TestChunkReaderMatchesBatch(t *testing.T) {
	tr := randomTrace(t, 21, 5, 30)
	var v2 bytes.Buffer
	if err := Encode(&v2, tr); err != nil {
		t.Fatal(err)
	}
	encodings := map[string][]byte{"v2": v2.Bytes()}
	for name, raw := range encodings {
		for _, limit := range []int{1, 7, 100, 1 << 20} {
			cr, err := NewChunkReader(context.Background(), bytes.NewReader(raw), DecodeOptions{})
			if err != nil {
				t.Fatalf("%s limit %d: %v", name, limit, err)
			}
			if cr.App() != tr.AppName || cr.NumRanks() != tr.NumRanks() {
				t.Fatalf("%s: header mismatch: app %q ranks %d", name, cr.App(), cr.NumRanks())
			}
			events, samples := drainChunks(t, cr, limit)
			got := New(cr.App(), cr.NumRanks(), cr.Symbols(), cr.Stacks())
			for r := range events {
				got.Ranks[r].Events = events[r]
				got.Ranks[r].Samples = samples[r]
			}
			equalTraces(t, tr, got)
		}
	}
}

// Damage inside one rank's v2 section must be isolated in salvage mode:
// the pre-damage prefix of that rank survives and every other rank decodes
// completely, matching the batch salvage decoder.
func TestChunkReaderSalvageSectionDamage(t *testing.T) {
	tr := randomTrace(t, 3, 2, 30)
	var buf bytes.Buffer
	if err := Encode(&buf, tr); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	sec1 := encodeRankSection(tr.Ranks[1])
	l1 := sec1.Len()
	putSectionBuf(sec1)
	sec0End := len(raw) - l1 - uvarintLen(uint64(l1))
	raw[sec0End-1] = 0xFF

	// Strict mode refuses the stream.
	cr, err := NewChunkReader(context.Background(), bytes.NewReader(raw), DecodeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	strictErr := func() error {
		for {
			if _, err := cr.Next(0); err != nil {
				return err
			}
		}
	}()
	if strictErr == io.EOF || !errors.Is(strictErr, ErrFormat) {
		t.Fatalf("strict chunked decode: got %v, want ErrFormat", strictErr)
	}

	// Salvage keeps rank 1 whole.
	cr, err = NewChunkReader(context.Background(), bytes.NewReader(raw), DecodeOptions{Salvage: true})
	if err != nil {
		t.Fatal(err)
	}
	events, samples := drainChunks(t, cr, 16)
	rep := cr.Report()
	if rep == nil || rep.Err == nil {
		t.Fatalf("salvage report missing the damage: %+v", rep)
	}
	if len(events[1]) != len(tr.Ranks[1].Events) || len(samples[1]) != len(tr.Ranks[1].Samples) {
		t.Fatalf("rank 1 lost records to rank 0's damage: %d/%d events, %d/%d samples",
			len(events[1]), len(tr.Ranks[1].Events), len(samples[1]), len(tr.Ranks[1].Samples))
	}
	if got, want := len(events[0])+len(samples[0]), len(tr.Ranks[0].Events)+len(tr.Ranks[0].Samples); got >= want {
		t.Fatalf("rank 0 kept %d of %d records despite damage", got, want)
	}
}

// Truncation mid-stream salvages the decoded prefix and reports lost ranks.
func TestChunkReaderSalvageTruncation(t *testing.T) {
	tr := randomTrace(t, 5, 4, 25)
	var buf bytes.Buffer
	if err := Encode(&buf, tr); err != nil {
		t.Fatal(err)
	}
	cut := buf.Bytes()[:buf.Len()*2/3]
	cr, err := NewChunkReader(context.Background(), bytes.NewReader(cut), DecodeOptions{Salvage: true})
	if err != nil {
		t.Fatal(err)
	}
	events, _ := drainChunks(t, cr, 64)
	rep := cr.Report()
	if rep == nil || rep.Err == nil || !errors.Is(rep.Err, ErrTruncated) {
		t.Fatalf("report did not note the truncation: %+v", rep)
	}
	if rep.RanksLost == 0 {
		t.Fatalf("no ranks reported lost: %+v", rep)
	}
	if len(events[0]) == 0 {
		t.Fatal("salvage lost rank 0 to tail truncation")
	}
}

// Cancellation must surface promptly and never be absorbed by salvage mode.
func TestChunkReaderCancellation(t *testing.T) {
	tr := randomTrace(t, 9, 2, 2000)
	var buf bytes.Buffer
	if err := Encode(&buf, tr); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cr, err := NewChunkReader(ctx, bytes.NewReader(buf.Bytes()), DecodeOptions{Salvage: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cr.Next(8); err != nil {
		t.Fatalf("first chunk: %v", err)
	}
	cancel()
	for i := 0; ; i++ {
		_, err := cr.Next(1 << 16)
		if errors.Is(err, context.Canceled) {
			break
		}
		if err != nil {
			t.Fatalf("got %v, want context.Canceled", err)
		}
		if i > 4 {
			t.Fatal("cancellation not observed within a few chunks")
		}
	}
}
