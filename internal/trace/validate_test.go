package trace

import (
	"testing"

	"phasefold/internal/callstack"
	"phasefold/internal/counters"
	"phasefold/internal/sim"
)

// TestRankValidatorReleasesOnError: once a rank's verdict is an error the
// merged check never runs again, so the validator must let go of the
// events it queued for it — a failed rank holds none of its records — and
// still report the verdict it would have reported with them.
func TestRankValidatorReleasesOnError(t *testing.T) {
	ins := func(v int64) counters.Set {
		var s counters.Set
		s.Put(counters.Instructions, v)
		return s
	}
	events := func() []Event {
		var evs []Event
		for i := 0; i < 8; i++ {
			typ := RegionEnter
			if i%2 == 1 {
				typ = RegionExit
			}
			evs = append(evs, Event{Time: sim.Time(10 * (i + 1)), Type: typ, Counters: ins(int64(100 * (i + 1)))})
		}
		return evs
	}
	cases := []struct {
		name string
		feed func(v *RankValidator)
	}{
		{"bad event", func(v *RankValidator) {
			v.Events(events())
			v.Events([]Event{{Time: 100, Type: EventType(99)}})
		}},
		{"bad sample", func(v *RankValidator) {
			v.Events(events())
			v.Samples([]Sample{{Time: 15, Stack: 7, Counters: ins(150)}})
		}},
		{"merged regression", func(v *RankValidator) {
			v.Events(events())
			v.Samples([]Sample{{Time: 25, Stack: callstack.NoStack, Counters: ins(150)}})
		}},
	}
	for _, c := range cases {
		v := NewRankValidator(0, callstack.NewInterner())
		c.feed(&v)
		want := v.Err()
		if want == nil {
			t.Fatalf("%s: no error", c.name)
		}
		if v.queued != 0 || v.cur != nil || v.rest != nil || v.prevEv != nil {
			t.Fatalf("%s: failed rank still queues %d events", c.name, v.queued)
		}
		// Later records of a failed rank stay void.
		v.Events([]Event{{Time: 500, Type: RegionEnter, Counters: ins(900)}, {Time: 510, Type: RegionExit, Counters: ins(910)}})
		if v.queued != 0 || v.cur != nil {
			t.Fatalf("%s: failed rank queued %d more events", c.name, v.queued)
		}
		if got := v.Finish(); got == nil || got.Error() != want.Error() {
			t.Fatalf("%s: Finish = %v, want %v", c.name, got, want)
		}
	}
}
