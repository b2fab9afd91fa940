package trace

import (
	"strings"
	"testing"

	"phasefold/internal/callstack"
	"phasefold/internal/counters"
	"phasefold/internal/sim"
)

func ctrAt(ins int64) counters.Set {
	s := counters.AllMissing()
	s.Put(counters.Instructions, ins)
	s.Put(counters.Cycles, 2*ins)
	return s
}

// buildTestTrace assembles a small, well-formed 2-rank trace used across the
// package's tests: per rank, one iteration with one region burst and one
// communication.
func buildTestTrace(t *testing.T) *Trace {
	t.Helper()
	tr := New("unit", 2, nil, nil)
	rid := tr.Symbols.Define(callstack.Routine{Name: "k", File: "k.c", StartLine: 1, EndLine: 9})
	sid := tr.Stacks.Intern(callstack.Stack{{Routine: rid, Line: 5}})
	for rank := int32(0); rank < 2; rank++ {
		base := sim.Time(rank) * 10 // offset streams per rank
		add := func(at sim.Time, typ EventType, val int64, ins int64) {
			tr.AddEvent(Event{Time: base + at, Rank: rank, Type: typ, Value: val, Counters: ctrAt(ins)})
		}
		add(0, IterBegin, 0, 0)
		add(10, RegionEnter, 1, 100)
		add(110, RegionExit, 1, 1100)
		add(120, CommEnter, -1, 1150)
		add(170, CommExit, -1, 1200)
		add(180, IterEnd, 0, 1250)
		tr.AddSample(Sample{Time: base + 60, Rank: rank, Counters: ctrAt(600), Stack: sid})
	}
	return tr
}

func TestNewPanicsOnBadRankCount(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New(0 ranks) did not panic")
		}
	}()
	New("x", 0, nil, nil)
}

func TestCounts(t *testing.T) {
	tr := buildTestTrace(t)
	if tr.NumRanks() != 2 {
		t.Fatalf("NumRanks = %d", tr.NumRanks())
	}
	if tr.NumEvents() != 12 {
		t.Fatalf("NumEvents = %d, want 12", tr.NumEvents())
	}
	if tr.NumSamples() != 2 {
		t.Fatalf("NumSamples = %d, want 2", tr.NumSamples())
	}
	if tr.EndTime() != 190 {
		t.Fatalf("EndTime = %d, want 190", tr.EndTime())
	}
}

func TestValidateAcceptsWellFormed(t *testing.T) {
	if err := buildTestTrace(t).Validate(); err != nil {
		t.Fatalf("valid trace rejected: %v", err)
	}
}

func TestValidateCatchesDisorder(t *testing.T) {
	tr := buildTestTrace(t)
	tr.Ranks[0].Events[0], tr.Ranks[0].Events[1] = tr.Ranks[0].Events[1], tr.Ranks[0].Events[0]
	if err := tr.Validate(); err == nil || !strings.Contains(err.Error(), "out of order") {
		t.Fatalf("disorder not caught: %v", err)
	}
}

func TestValidateCatchesUnbalancedRegion(t *testing.T) {
	tr := New("x", 1, nil, nil)
	tr.AddEvent(Event{Time: 1, Type: RegionEnter, Value: 1, Counters: counters.AllMissing()})
	if err := tr.Validate(); err == nil || !strings.Contains(err.Error(), "unclosed") {
		t.Fatalf("unclosed region not caught: %v", err)
	}
}

func TestValidateCatchesExitWithoutEnter(t *testing.T) {
	tr := New("x", 1, nil, nil)
	tr.AddEvent(Event{Time: 1, Type: CommExit, Counters: counters.AllMissing()})
	if err := tr.Validate(); err == nil || !strings.Contains(err.Error(), "without enter") {
		t.Fatalf("comm exit without enter not caught: %v", err)
	}
}

func TestValidateCatchesWrongRankField(t *testing.T) {
	tr := New("x", 2, nil, nil)
	tr.Ranks[0].Events = append(tr.Ranks[0].Events, Event{Time: 1, Rank: 1, Type: IterBegin, Counters: counters.AllMissing()})
	if err := tr.Validate(); err == nil || !strings.Contains(err.Error(), "carries rank") {
		t.Fatalf("wrong rank field not caught: %v", err)
	}
}

func TestValidateCatchesDanglingStack(t *testing.T) {
	tr := New("x", 1, nil, nil)
	tr.AddSample(Sample{Time: 1, Stack: 42, Counters: counters.AllMissing()})
	if err := tr.Validate(); err == nil || !strings.Contains(err.Error(), "unknown stack") {
		t.Fatalf("dangling stack not caught: %v", err)
	}
}

func TestSortRecords(t *testing.T) {
	tr := New("x", 1, nil, nil)
	tr.AddEvent(Event{Time: 20, Type: IterEnd, Counters: counters.AllMissing()})
	tr.AddEvent(Event{Time: 10, Type: IterBegin, Counters: counters.AllMissing()})
	tr.SortRecords()
	if tr.Ranks[0].Events[0].Time != 10 {
		t.Fatal("SortRecords did not sort events")
	}
}

func TestEventTypeString(t *testing.T) {
	if RegionEnter.String() != "region_enter" || CommExit.String() != "comm_exit" {
		t.Fatal("event type names wrong")
	}
	if EventType(99).Valid() {
		t.Fatal("EventType(99) reported valid")
	}
	if EventType(99).String() == "" {
		t.Fatal("invalid event type String empty")
	}
}
