package trace

import (
	"errors"
	"strings"
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
		if v.queued != 0 || v.cur != nil || v.rest != nil {
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

// TestRankValidatorRejectsLateEvent: a rank's events must arrive before its
// samples of the same or a later time. An event fed after such a sample
// cannot take its place on the merged timeline, so the validator rejects it
// as out of order; here the late event's counter also sits above the later
// sample's, a regression only the merged timeline shows. An event after the
// last sample is still accepted.
func TestRankValidatorRejectsLateEvent(t *testing.T) {
	ins := func(v int64) counters.Set {
		var s counters.Set
		s.Put(counters.Instructions, v)
		return s
	}
	for _, c := range []struct {
		at   sim.Time
		late bool
	}{{42, true}, {45, true}, {46, false}} {
		v := NewRankValidator(0, callstack.NewInterner())
		v.Events([]Event{
			{Time: 10, Type: RegionEnter, Counters: ins(100)},
			{Time: 20, Type: RegionExit, Counters: ins(200)},
			{Time: 30, Type: RegionEnter, Counters: ins(300)},
			{Time: 40, Type: RegionExit, Counters: ins(400)},
		})
		v.Samples([]Sample{
			{Time: 15, Stack: callstack.NoStack, Counters: ins(150)},
			{Time: 25, Stack: callstack.NoStack, Counters: ins(250)},
			{Time: 45, Stack: callstack.NoStack, Counters: ins(450)},
		})
		v.Events([]Event{{Time: c.at, Type: IterEnd, Counters: ins(460)}})
		err := v.Err()
		if !c.late {
			if err != nil || v.Finish() != nil {
				t.Fatalf("event at %d after the last sample rejected: %v", c.at, err)
			}
			continue
		}
		if !errors.Is(err, ErrInvalid) || !strings.Contains(err.Error(), "event 4 out of order") ||
			!strings.Contains(err.Error(), "events must arrive before its samples") {
			t.Fatalf("late event at %d: Err = %v, want the per-rank order error", c.at, err)
		}
		if got := v.Finish(); got == nil || got.Error() != err.Error() {
			t.Fatalf("late event at %d: Finish = %v, want %v", c.at, got, err)
		}
	}
}
