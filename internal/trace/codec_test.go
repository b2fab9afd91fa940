package trace

import (
	"bytes"
	"context"
	"errors"
	"reflect"
	"strings"
	"testing"

	"phasefold/internal/callstack"
	"phasefold/internal/counters"
	"phasefold/internal/sim"
)

// randomTrace builds a pseudo-random but well-formed trace for roundtrip
// testing.
func randomTrace(t *testing.T, seed uint64, ranks, iters int) *Trace {
	t.Helper()
	rng := sim.NewRNG(seed)
	tr := New("random", ranks, nil, nil)
	rids := make([]callstack.RoutineID, 3)
	for i := range rids {
		rids[i] = tr.Symbols.Define(callstack.Routine{
			Name: string(rune('a'+i)) + ".fn", File: "f.c", StartLine: 1 + i*10, EndLine: 9 + i*10,
		})
	}
	for rank := 0; rank < ranks; rank++ {
		now := sim.Time(0)
		step := func() sim.Time {
			now += sim.Time(1 + rng.Intn(1000))
			return now
		}
		ctr := func() counters.Set {
			s := counters.AllMissing()
			s.Put(counters.Instructions, int64(now))
			if rng.Float64() < 0.8 {
				s.Put(counters.Cycles, 2*int64(now))
			}
			return s
		}
		for it := 0; it < iters; it++ {
			tr.AddEvent(Event{Time: step(), Rank: int32(rank), Type: IterBegin, Value: int64(it), Counters: ctr(), Group: uint8(it % 4)})
			tr.AddEvent(Event{Time: step(), Rank: int32(rank), Type: RegionEnter, Value: 1, Counters: ctr()})
			// A couple of samples inside the region.
			for s := 0; s < 2; s++ {
				stack := callstack.NoStack
				if rng.Float64() < 0.7 {
					stack = tr.Stacks.Intern(callstack.Stack{
						{Routine: rids[rng.Intn(3)], Line: rng.Intn(100)},
						{Routine: rids[rng.Intn(3)], Line: rng.Intn(100)},
					})
				}
				tr.AddSample(Sample{Time: step(), Rank: int32(rank), Counters: ctr(), Stack: stack, Group: uint8(it % 4)})
			}
			tr.AddEvent(Event{Time: step(), Rank: int32(rank), Type: RegionExit, Value: 1, Counters: ctr()})
			tr.AddEvent(Event{Time: step(), Rank: int32(rank), Type: IterEnd, Value: int64(it), Counters: ctr()})
		}
	}
	if err := tr.Validate(); err != nil {
		t.Fatalf("random trace invalid: %v", err)
	}
	return tr
}

// equalTraces compares two traces record-by-record, resolving stack ids
// through each trace's own interner (ids may differ across encode/decode).
func equalTraces(t *testing.T, a, b *Trace) {
	t.Helper()
	if a.AppName != b.AppName {
		t.Fatalf("app name %q vs %q", a.AppName, b.AppName)
	}
	if a.NumRanks() != b.NumRanks() {
		t.Fatalf("rank count %d vs %d", a.NumRanks(), b.NumRanks())
	}
	if !reflect.DeepEqual(a.Symbols.Routines(), b.Symbols.Routines()) {
		t.Fatal("symbol tables differ")
	}
	for r := 0; r < a.NumRanks(); r++ {
		ra, rb := a.Ranks[r], b.Ranks[r]
		if !reflect.DeepEqual(ra.Events, rb.Events) {
			t.Fatalf("rank %d events differ", r)
		}
		if len(ra.Samples) != len(rb.Samples) {
			t.Fatalf("rank %d sample count %d vs %d", r, len(ra.Samples), len(rb.Samples))
		}
		for i := range ra.Samples {
			sa, sb := ra.Samples[i], rb.Samples[i]
			if sa.Time != sb.Time || sa.Counters != sb.Counters || sa.Group != sb.Group {
				t.Fatalf("rank %d sample %d scalar fields differ", r, i)
			}
			ka, okA := a.Stacks.Get(sa.Stack)
			kb, okB := b.Stacks.Get(sb.Stack)
			if okA != okB || (okA && !ka.Equal(kb)) {
				t.Fatalf("rank %d sample %d stacks differ", r, i)
			}
		}
	}
}

func TestBinaryRoundtrip(t *testing.T) {
	orig := randomTrace(t, 1, 3, 5)
	var buf bytes.Buffer
	if err := Encode(&buf, orig); err != nil {
		t.Fatal(err)
	}
	got, _, err := Decode(context.Background(), &buf, DecodeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	equalTraces(t, orig, got)
}

func TestBinaryRoundtripManySeeds(t *testing.T) {
	for seed := uint64(2); seed < 12; seed++ {
		orig := randomTrace(t, seed, 2, 3)
		var buf bytes.Buffer
		if err := Encode(&buf, orig); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		got, _, err := Decode(context.Background(), &buf, DecodeOptions{})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		equalTraces(t, orig, got)
	}
}

func TestDecodeRejectsBadMagic(t *testing.T) {
	for _, in := range []string{"NOPE....", "PFT1\x00\x01\x00\x00\x00\x00"} {
		_, _, err := Decode(context.Background(), strings.NewReader(in), DecodeOptions{})
		if !errors.Is(err, ErrBadMagic) {
			t.Fatalf("%q: got %v, want ErrBadMagic", in, err)
		}
		if strings.HasPrefix(in, "PFT1") && !strings.Contains(err.Error(), "retired") {
			t.Fatalf("%q: error %q does not name the retired layout", in, err)
		}
	}
}

func TestDecodeRejectsTruncated(t *testing.T) {
	orig := randomTrace(t, 5, 1, 2)
	var buf bytes.Buffer
	if err := Encode(&buf, orig); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	for _, cut := range []int{5, len(raw) / 2, len(raw) - 1} {
		if _, _, err := Decode(context.Background(), bytes.NewReader(raw[:cut]), DecodeOptions{}); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
}

func TestTextRoundtrip(t *testing.T) {
	orig := randomTrace(t, 7, 2, 4)
	var buf bytes.Buffer
	if err := EncodeText(&buf, orig); err != nil {
		t.Fatal(err)
	}
	got, _, err := DecodeText(context.Background(), &buf, DecodeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	equalTraces(t, orig, got)
}

func TestTextFormatIsLineOriented(t *testing.T) {
	orig := buildTestTrace(t)
	var buf bytes.Buffer
	if err := EncodeText(&buf, orig); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	if !strings.HasPrefix(text, "#PFTEXT1 unit\n") {
		t.Fatalf("missing header: %q", text[:40])
	}
	if !strings.Contains(text, "E 0 ") || !strings.Contains(text, "S 0 ") {
		t.Fatal("missing event/sample records")
	}
}

func TestDecodeTextSkipsCommentsAndBlanks(t *testing.T) {
	in := "#PFTEXT1 app\n\n# a comment\nE 0 10 iter_begin 0 0 -\nE 0 20 iter_end 0 0 -\n"
	tr, _, err := DecodeText(context.Background(), strings.NewReader(in), DecodeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if tr.NumEvents() != 2 {
		t.Fatalf("NumEvents = %d, want 2", tr.NumEvents())
	}
}

func TestDecodeTextRejectsGarbage(t *testing.T) {
	cases := []string{
		"",                                       // empty
		"WRONG header\n",                         // bad magic
		"#PFTEXT1 app\nZ what is this\n",         // unknown record
		"#PFTEXT1 app\nE 0 10 nope 0 0 -",        // unknown event type
		"#PFTEXT1 app\nS 0 10 5 0 -\n",           // dangling stack reference
		"#PFTEXT1 app\nE 0 x iter_begin 0 0 -\n", // bad number
	}
	for _, in := range cases {
		if _, _, err := DecodeText(context.Background(), strings.NewReader(in), DecodeOptions{}); err == nil {
			t.Errorf("garbage accepted: %q", in)
		}
	}
}

func TestCounterFieldFormat(t *testing.T) {
	s := counters.AllMissing()
	if got := formatCounters(s); got != "-" {
		t.Fatalf("all-missing renders %q", got)
	}
	s.Put(counters.Instructions, 5)
	s.Put(counters.FPOps, -3) // negative values are legal (deltas)
	field := formatCounters(s)
	back, err := parseCounters(field)
	if err != nil {
		t.Fatal(err)
	}
	if back != s {
		t.Fatalf("counter field roundtrip %q -> %v, want %v", field, back, s)
	}
}

func TestParseCountersRejects(t *testing.T) {
	for _, in := range []string{"x", "1", "99=5", "1=z", "=4"} {
		if _, err := parseCounters(in); err == nil {
			t.Errorf("parseCounters accepted %q", in)
		}
	}
}
