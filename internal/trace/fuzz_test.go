package trace

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"reflect"
	"slices"
	"testing"

	"phasefold/internal/callstack"
	"phasefold/internal/counters"
	"phasefold/internal/exec"
)

// fuzzSeedTrace builds a small real trace to seed the corpus with valid
// encodings — fuzzing from structured seeds reaches far deeper than from
// random bytes.
func fuzzSeedTrace(tb testing.TB) *Trace {
	tb.Helper()
	syms := callstack.NewSymbolTable()
	rt := syms.Define(callstack.Routine{Name: "f", File: "f.c"})
	tr := New("fuzz", 2, syms, callstack.NewInterner())
	st := tr.Stacks.Intern(callstack.Stack{{Routine: rt, Line: 3}})
	for r := int32(0); r < 2; r++ {
		ctr := counters.AllMissing()
		ctr.Put(counters.Instructions, 100)
		tr.AddEvent(Event{Time: 10, Rank: r, Type: IterBegin, Counters: ctr})
		tr.AddEvent(Event{Time: 20, Rank: r, Type: RegionEnter, Value: 7, Counters: counters.AllMissing()})
		ctr.Put(counters.Instructions, 900)
		tr.AddSample(Sample{Time: 25, Rank: r, Counters: ctr, Stack: st})
		tr.AddEvent(Event{Time: 30, Rank: r, Type: RegionExit, Value: 7, Counters: counters.AllMissing()})
	}
	return tr
}

// FuzzDecode drives the binary decoder, strict and salvage, over arbitrary
// bytes. Both modes must be panic- and OOM-free; whatever they accept must
// validate; and salvage must never do worse than strict.
func FuzzDecode(f *testing.F) {
	var buf bytes.Buffer
	if err := Encode(&buf, fuzzSeedTrace(f)); err != nil {
		f.Fatal(err)
	}
	full := buf.Bytes()
	f.Add(full)
	f.Add(full[:len(full)/2])
	f.Add(full[:len(full)-3])
	f.Add([]byte(binaryMagic))
	f.Add([]byte("PFT1"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		tr, _, err := Decode(context.Background(), bytes.NewReader(data), DecodeOptions{})
		if err == nil {
			if verr := tr.Validate(); verr != nil {
				t.Fatalf("strict decode accepted an invalid trace: %v", verr)
			}
		}
		str, rep, serr := Decode(context.Background(), bytes.NewReader(data), DecodeOptions{Salvage: true})
		if serr == nil {
			if verr := str.Validate(); verr != nil {
				t.Fatalf("salvaged trace invalid: %v", verr)
			}
			if rep == nil {
				t.Fatal("salvage succeeded without a report")
			}
		}
		if err == nil && serr != nil {
			t.Fatalf("strict accepted what salvage rejected: %v", serr)
		}
	})
}

// FuzzChunkReader holds the two binary readers to one parser over arbitrary
// bytes and chunk limits (0 means the default). Strict: the records drained
// from ChunkReader, validated as a trace, are exactly strict Decode's at 1
// and 4 workers, and both fail with the same sentinel. Salvage: the drained
// records, sanitized, are exactly Decode's salvaged trace and report.
func FuzzChunkReader(f *testing.F) {
	var buf bytes.Buffer
	if err := Encode(&buf, fuzzSeedTrace(f)); err != nil {
		f.Fatal(err)
	}
	full := buf.Bytes()
	for _, limit := range []uint16{0, 1, 3} {
		f.Add(full, limit)
		f.Add(full[:len(full)/2], limit)
		f.Add(full[:len(full)-3], limit)
	}
	f.Add([]byte("PFT1"), uint16(0))
	f.Add([]byte{}, uint16(1))
	f.Fuzz(func(t *testing.T, data []byte, limit uint16) {
		chunked, cerr := drainTrace(data, DecodeOptions{}, int(limit))
		if cerr == nil {
			cerr = chunked.Validate()
		}
		for _, p := range []int{1, 4} {
			batch, _, err := Decode(context.Background(), bytes.NewReader(data), DecodeOptions{Exec: exec.Exec{Parallelism: p}})
			if sentinel(err) != sentinel(cerr) {
				t.Fatalf("parallelism %d: Decode error %v, ChunkReader error %v", p, err, cerr)
			}
			if err == nil {
				sameRecords(t, batch, chunked)
			}
		}

		opt := DecodeOptions{Salvage: true}
		cr, herr := NewChunkReader(context.Background(), bytes.NewReader(data), opt)
		salvaged, rep, err := Decode(context.Background(), bytes.NewReader(data), opt)
		if herr != nil {
			if sentinel(err) != sentinel(herr) {
				t.Fatalf("header: Decode error %v, ChunkReader error %v", err, herr)
			}
			return
		}
		chunked, cerr = drainChunkReader(cr, int(limit))
		if cerr != nil {
			if err == nil {
				t.Fatalf("Decode salvaged what ChunkReader rejected: %v", cerr)
			}
			return
		}
		want := cr.Report()
		want.Problems = append(want.Problems, chunked.Sanitize()...)
		want.Events, want.Samples, want.RanksLost = 0, 0, 0
		for _, rd := range chunked.Ranks {
			want.Events += len(rd.Events)
			want.Samples += len(rd.Samples)
			if want.Err != nil && len(rd.Events)+len(rd.Samples) == 0 {
				want.RanksLost++
			}
		}
		if (want.Err != nil && want.Events+want.Samples == 0) || chunked.Validate() != nil {
			if err == nil {
				t.Fatal("Decode salvaged a trace the drained records cannot make")
			}
			return
		}
		if err != nil {
			t.Fatalf("salvage Decode failed (%v) where the drained records sanitize", err)
		}
		sameRecords(t, salvaged, chunked)
		if fmt.Sprint(rep.Err) != fmt.Sprint(want.Err) || rep.Events != want.Events || rep.Samples != want.Samples ||
			rep.RanksLost != want.RanksLost || !reflect.DeepEqual(rep.Problems, want.Problems) {
			t.Fatalf("salvage report %+v, drained records give %+v", rep, want)
		}
	})
}

// drainTrace reads data through a ChunkReader at the given chunk limit.
func drainTrace(data []byte, opt DecodeOptions, limit int) (*Trace, error) {
	cr, err := NewChunkReader(context.Background(), bytes.NewReader(data), opt)
	if err != nil {
		return nil, err
	}
	return drainChunkReader(cr, limit)
}

// drainChunkReader collects every chunk of cr into its skeleton trace.
func drainChunkReader(cr *ChunkReader, limit int) (*Trace, error) {
	t, err := cr.Skeleton()
	if err != nil {
		return nil, err
	}
	for {
		c, err := cr.Next(limit)
		if err == io.EOF {
			return t, nil
		}
		if err != nil {
			return nil, err
		}
		rd := t.Ranks[c.Rank]
		rd.Events = append(rd.Events, c.Events...)
		rd.Samples = append(rd.Samples, c.Samples...)
	}
}

// sentinel names the package sentinel err matches, "" for nil.
func sentinel(err error) string {
	if err == nil {
		return ""
	}
	for _, s := range []error{ErrBadMagic, ErrTruncated, ErrCorrupt, ErrNoRanks, ErrInvalid} {
		if errors.Is(err, s) {
			return s.Error()
		}
	}
	return "unclassified: " + err.Error()
}

// sameRecords requires identical per-rank records; both traces share one
// header, so stack IDs compare directly.
func sameRecords(t *testing.T, a, b *Trace) {
	t.Helper()
	if a.NumRanks() != b.NumRanks() {
		t.Fatalf("rank count %d vs %d", a.NumRanks(), b.NumRanks())
	}
	for r := range a.Ranks {
		if !slices.Equal(a.Ranks[r].Events, b.Ranks[r].Events) || !slices.Equal(a.Ranks[r].Samples, b.Ranks[r].Samples) {
			t.Fatalf("rank %d records differ", r)
		}
	}
}

// FuzzDecodeText drives the text decoder the same way.
func FuzzDecodeText(f *testing.F) {
	var buf bytes.Buffer
	if err := EncodeText(&buf, fuzzSeedTrace(f)); err != nil {
		f.Fatal(err)
	}
	full := buf.String()
	f.Add(full)
	f.Add(full[:len(full)/2])
	f.Add(textMagic + "\n")
	f.Add(textMagic + "\nE 0 bogus\n")
	f.Add("")
	f.Fuzz(func(t *testing.T, data string) {
		tr, _, err := DecodeText(context.Background(), bytes.NewReader([]byte(data)), DecodeOptions{})
		if err == nil {
			if verr := tr.Validate(); verr != nil {
				t.Fatalf("strict text decode accepted an invalid trace: %v", verr)
			}
		}
		str, rep, serr := DecodeText(context.Background(), bytes.NewReader([]byte(data)), DecodeOptions{Salvage: true})
		if serr == nil {
			if verr := str.Validate(); verr != nil {
				t.Fatalf("salvaged text trace invalid: %v", verr)
			}
			if rep == nil {
				t.Fatal("salvage succeeded without a report")
			}
		}
		if err == nil && serr != nil {
			t.Fatalf("strict accepted what salvage rejected: %v", serr)
		}
	})
}
