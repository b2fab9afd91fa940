package trace

import (
	"errors"
	"strings"
	"testing"

	"phasefold/internal/callstack"
	"phasefold/internal/counters"
	"phasefold/internal/sim"
)

// These tests pin down the error taxonomy: every rejection must wrap the
// right package sentinel so callers can dispatch with errors.Is, and the
// less-traveled Validate branches (comm nesting, dangling stacks, counter
// monotonicity) must actually fire.

func TestValidateErrorsWrapSentinel(t *testing.T) {
	damage := []struct {
		name string
		want string
		make func() *Trace
	}{
		{"unclosed comm", "unclosed comms", func() *Trace {
			tr := New("x", 1, nil, nil)
			tr.AddEvent(Event{Time: 1, Type: CommEnter, Counters: counters.AllMissing()})
			return tr
		}},
		{"comm exit without enter", "comm exit without enter", func() *Trace {
			tr := New("x", 1, nil, nil)
			tr.AddEvent(Event{Time: 1, Type: CommExit, Counters: counters.AllMissing()})
			return tr
		}},
		{"dangling stack", "unknown stack", func() *Trace {
			tr := New("x", 1, nil, nil)
			tr.AddSample(Sample{Time: 1, Stack: 7, Counters: counters.AllMissing()})
			return tr
		}},
		{"nil rank slot", "rank 1 missing", func() *Trace {
			tr := New("x", 2, nil, nil)
			tr.Ranks[1] = nil
			return tr
		}},
		{"invalid event type", "invalid type", func() *Trace {
			tr := New("x", 1, nil, nil)
			tr.Ranks[0].Events = append(tr.Ranks[0].Events,
				Event{Time: 1, Type: EventType(99), Counters: counters.AllMissing()})
			return tr
		}},
		{"negative counter", "negative", func() *Trace {
			tr := New("x", 1, nil, nil)
			c := counters.AllMissing()
			c.Put(counters.Instructions, -5)
			tr.AddSample(Sample{Time: 1, Stack: callstack.NoStack, Counters: c})
			return tr
		}},
		{"counter regression", "regresses", func() *Trace {
			tr := New("x", 1, nil, nil)
			hi := counters.AllMissing()
			hi.Put(counters.Instructions, 100)
			lo := counters.AllMissing()
			lo.Put(counters.Instructions, 40)
			tr.AddSample(Sample{Time: 1, Stack: callstack.NoStack, Counters: hi})
			tr.AddSample(Sample{Time: 2, Stack: callstack.NoStack, Counters: lo})
			return tr
		}},
	}
	for _, tc := range damage {
		err := tc.make().Validate()
		if err == nil {
			t.Errorf("%s: Validate accepted", tc.name)
			continue
		}
		if !errors.Is(err, ErrInvalid) {
			t.Errorf("%s: error %v does not wrap ErrInvalid", tc.name, err)
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}
}

func TestValidateRankOutOfRange(t *testing.T) {
	tr := New("x", 1, nil, nil)
	for _, r := range []int{-1, 1, 99} {
		if err := tr.ValidateRank(r); !errors.Is(err, ErrInvalid) {
			t.Errorf("ValidateRank(%d) = %v, want ErrInvalid", r, err)
		}
	}
}

// Counter regressions spanning the event/sample boundary must be caught: the
// walk is over the merged timeline, not per stream.
func TestValidateCountersAcrossStreams(t *testing.T) {
	tr := New("x", 1, nil, nil)
	hi := counters.AllMissing()
	hi.Put(counters.Instructions, 100)
	lo := counters.AllMissing()
	lo.Put(counters.Instructions, 40)
	tr.AddSample(Sample{Time: 1, Stack: callstack.NoStack, Counters: hi})
	tr.AddEvent(Event{Time: 2, Type: IterBegin, Counters: lo})
	if err := tr.Validate(); !errors.Is(err, ErrInvalid) {
		t.Fatalf("cross-stream counter regression not caught: %v", err)
	}
	// And the repair pass must fix exactly that.
	if probs := tr.Sanitize(); len(probs) == 0 {
		t.Fatal("Sanitize reported no repairs")
	}
	if err := tr.Validate(); err != nil {
		t.Fatalf("trace still invalid after Sanitize: %v", err)
	}
}

// Sanitize must prefer masking the outlier, not everything after it: one
// garbled huge value in an otherwise monotone series loses one point.
func TestSanitizeMasksOutlierNotTail(t *testing.T) {
	tr := New("x", 1, nil, nil)
	vals := []int64{10, 20, 1 << 60, 30, 40, 50}
	for i, v := range vals {
		c := counters.AllMissing()
		c.Put(counters.Instructions, v)
		tr.AddSample(Sample{Time: sim.Time(i + 1), Stack: callstack.NoStack, Counters: c})
	}
	tr.Sanitize()
	masked := 0
	for _, s := range tr.Ranks[0].Samples {
		if _, ok := s.Counters.Get(counters.Instructions); !ok {
			masked++
		}
	}
	if masked != 1 {
		t.Fatalf("masked %d values, want exactly the one outlier", masked)
	}
	if _, ok := tr.Ranks[0].Samples[2].Counters.Get(counters.Instructions); ok {
		t.Fatal("the outlier itself survived")
	}
}
