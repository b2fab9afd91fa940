package trace

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"testing"

	"phasefold/internal/exec"
)

// These tests pin the "PFT2" sectioned container: parallel decode must be
// indistinguishable from serial, and section framing must fail loudly when
// it lies.

func TestDecodeParallelMatchesSerial(t *testing.T) {
	tr := randomTrace(t, 7, 6, 40)
	var buf bytes.Buffer
	if err := Encode(&buf, tr); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	for _, workers := range []int{1, 2, 3, 8} {
		got, _, err := Decode(context.Background(), bytes.NewReader(raw), DecodeOptions{Exec: exec.Exec{Parallelism: workers}})
		if err != nil {
			t.Fatalf("parallelism %d: %v", workers, err)
		}
		equalTraces(t, tr, got)
	}
}

// A byte of damage inside one rank's section must not take down the other
// ranks in salvage mode: section framing isolates the blast radius, which
// the unframed v1 stream could never do.
func TestSectionDamageIsolatedPerRank(t *testing.T) {
	tr := randomTrace(t, 3, 2, 30)
	var buf bytes.Buffer
	if err := Encode(&buf, tr); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	// The stream ends with: uvarint(len0) sec0 uvarint(len1) sec1. Setting
	// the continuation bit on sec0's final byte makes its last varint run
	// off the section end — guaranteed damage confined to rank 0.
	sec1 := encodeRankSection(tr.Ranks[1])
	l1 := sec1.Len()
	putSectionBuf(sec1)
	prefix1 := uvarintLen(uint64(l1))
	sec0End := len(raw) - l1 - prefix1
	raw[sec0End-1] = 0xFF

	if _, _, err := Decode(context.Background(), bytes.NewReader(raw), DecodeOptions{Exec: exec.Exec{Parallelism: 4}}); err == nil {
		t.Fatal("strict decode accepted a damaged section")
	} else if !errors.Is(err, ErrFormat) {
		t.Fatalf("damage error %v does not match ErrFormat", err)
	}

	got, rep, err := Decode(context.Background(), bytes.NewReader(raw),
		DecodeOptions{Salvage: true, Exec: exec.Exec{Parallelism: 4}})
	if err != nil {
		t.Fatalf("salvage: %v", err)
	}
	if rep == nil || rep.Err == nil {
		t.Fatal("salvage did not report the damage")
	}
	if len(got.Ranks[1].Events) != len(tr.Ranks[1].Events) ||
		len(got.Ranks[1].Samples) != len(tr.Ranks[1].Samples) {
		t.Fatalf("rank 1 lost records to rank 0's damage: %d/%d events, %d/%d samples",
			len(got.Ranks[1].Events), len(tr.Ranks[1].Events),
			len(got.Ranks[1].Samples), len(tr.Ranks[1].Samples))
	}
	total := len(got.Ranks[0].Events) + len(got.Ranks[0].Samples)
	want := len(tr.Ranks[0].Events) + len(tr.Ranks[0].Samples)
	if total >= want {
		t.Fatalf("rank 0 kept %d of %d records despite damage", total, want)
	}
}

// Truncating the stream mid-section must salvage every fully-loaded rank
// plus the damaged rank's decoded prefix, and fail strict decode.
func TestSectionTruncationSalvage(t *testing.T) {
	tr := randomTrace(t, 5, 4, 25)
	var buf bytes.Buffer
	if err := Encode(&buf, tr); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	cut := raw[:len(raw)*2/3]
	if _, _, err := Decode(context.Background(), bytes.NewReader(cut), DecodeOptions{Exec: exec.Exec{Parallelism: 4}}); !errors.Is(err, ErrTruncated) {
		t.Fatalf("truncated stream: got %v, want ErrTruncated", err)
	}
	got, rep, err := Decode(context.Background(), bytes.NewReader(cut),
		DecodeOptions{Salvage: true, Exec: exec.Exec{Parallelism: 4}})
	if err != nil {
		t.Fatalf("salvage of truncated stream: %v", err)
	}
	if rep.Err == nil || rep.RanksLost == 0 {
		t.Fatalf("report did not note the truncation: %+v", rep)
	}
	if len(got.Ranks[0].Events) == 0 {
		t.Fatal("salvage lost rank 0 to tail truncation")
	}
}

func uvarintLen(v uint64) int {
	n := 1
	for v >= 0x80 {
		v >>= 7
		n++
	}
	return n
}

// A length prefix that claims more bytes than the stream still holds is
// truncation even when the records it does hold decode whole: both readers
// must say ErrTruncated, not mistake the missing tail for trailing bytes.
func TestSectionLongerThanStreamIsTruncation(t *testing.T) {
	tr := randomTrace(t, 3, 2, 30)
	var buf bytes.Buffer
	if err := Encode(&buf, tr); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	sec1 := encodeRankSection(tr.Ranks[1])
	l1 := sec1.Len()
	putSectionBuf(sec1)
	prefix := raw[len(raw)-l1-uvarintLen(uint64(l1)) : len(raw)-l1]
	longer := binary.AppendUvarint(nil, uint64(l1+5))
	if len(longer) != len(prefix) {
		t.Fatalf("prefix width changed: %d -> %d bytes", len(prefix), len(longer))
	}
	copy(prefix, longer)

	for _, p := range []int{1, 4} {
		_, _, err := Decode(context.Background(), bytes.NewReader(raw), DecodeOptions{Exec: exec.Exec{Parallelism: p}})
		if !errors.Is(err, ErrTruncated) {
			t.Fatalf("Decode at parallelism %d: got %v, want ErrTruncated", p, err)
		}
	}
	cr, err := NewChunkReader(context.Background(), bytes.NewReader(raw), DecodeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for err == nil {
		_, err = cr.Next(7)
	}
	if !errors.Is(err, ErrTruncated) {
		t.Fatalf("ChunkReader: got %v, want ErrTruncated", err)
	}
}
