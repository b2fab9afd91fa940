package trace

import (
	"fmt"

	"phasefold/internal/callstack"
	"phasefold/internal/counters"
	"phasefold/internal/sim"
)

// RankValidator checks one rank's records against Validate's invariants as
// they arrive: records in time order, rank fields matching the stream,
// defined event types, balanced region/comm nesting, stack references that
// resolve, and captured counters non-negative and non-decreasing along the
// rank's merged event+sample timeline. Trace.ValidateRank drives it over a
// resident rank; the analysis ingest runs it on each stretch of records as
// it arrives.
//
// Records must arrive in per-rank order: each stream in time order, and
// every event before the samples at or after its time, as the container's
// rank sections hold them (all events, then all samples). An event at or
// before the last sample already checked is rejected as out of order, so
// the merged check is exact on every order the validator accepts.
//
// Finish reports the first error in this order: the first bad event, else
// unclosed nesting, else the first bad sample, else the first counter
// regression in merged order. The validator keeps the events no sample
// has passed yet, by reference, and nothing per sample. In container order
// that is up to the rank's whole event section, held until the rank's
// samples pass it; the events after its last sample are held until
// Finish, and a failed rank's queue is released at once.
type RankValidator struct {
	rank   int
	stacks *callstack.Interner

	events, samples int // records seen, the error-message indices
	evPrev, smpPrev sim.Time
	sampled         bool // a sample passed the structural checks
	depthRegion     int
	depthComm       int

	evErr, smpErr error // first bad event, first bad sample

	// The merged-timeline counter check. The queue holds the events no
	// sample has passed yet — always the most recent ones — as the runs
	// Events received: cur[head:], then rest. last is the running value of
	// each counter along the merged timeline.
	cur     []Event
	head    int
	rest    [][]Event
	queued  int
	last    counters.Set
	monoErr error
}

// NewRankValidator returns a validator for rank's records; stacks resolves
// the samples' stack references.
func NewRankValidator(rank int, stacks *callstack.Interner) RankValidator {
	return RankValidator{rank: rank, stacks: stacks, last: counters.AllMissing()}
}

// Events checks the next run of the stream's events. The validator keeps
// the run until samples pass it, or until the rank fails; the caller must
// not modify it before then.
func (v *RankValidator) Events(evs []Event) {
	defer v.releaseOnError()
	base := v.events
	v.events += len(evs)
	if v.evErr != nil {
		return
	}
	for i := range evs {
		if v.evErr = v.checkEvent(&evs[i], base+i); v.evErr != nil {
			return
		}
	}
	if len(evs) == 0 || v.smpErr != nil || v.monoErr != nil {
		return
	}
	if v.queued == 0 {
		v.cur, v.head = evs, 0
	} else {
		v.rest = append(v.rest, evs)
	}
	v.queued += len(evs)
}

// checkEvent returns the structural error of event i, if any.
func (v *RankValidator) checkEvent(e *Event, i int) error {
	r := v.rank
	switch {
	case e.Time < v.evPrev:
		return fmt.Errorf("%w: rank %d event %d out of order (%d after %d)", ErrInvalid, r, i, e.Time, v.evPrev)
	case v.sampled && e.Time <= v.smpPrev:
		return fmt.Errorf("%w: rank %d event %d out of order (at %d, after a sample at %d: a rank's events must arrive before its samples of the same or a later time)",
			ErrInvalid, r, i, e.Time, v.smpPrev)
	case int(e.Rank) != r:
		return fmt.Errorf("%w: rank %d event %d carries rank %d", ErrInvalid, r, i, e.Rank)
	case !e.Type.Valid():
		return fmt.Errorf("%w: rank %d event %d has invalid type %d", ErrInvalid, r, i, e.Type)
	}
	v.evPrev = e.Time
	switch e.Type {
	case RegionEnter:
		v.depthRegion++
	case RegionExit:
		v.depthRegion--
		if v.depthRegion < 0 {
			return fmt.Errorf("%w: rank %d event %d: region exit without enter", ErrInvalid, r, i)
		}
	case CommEnter:
		v.depthComm++
	case CommExit:
		v.depthComm--
		if v.depthComm < 0 {
			return fmt.Errorf("%w: rank %d event %d: comm exit without enter", ErrInvalid, r, i)
		}
	}
	return nil
}

// Samples checks the next run of the stream's samples.
func (v *RankValidator) Samples(smps []Sample) {
	defer v.releaseOnError()
	base := v.samples
	v.samples += len(smps)
	for i := range smps {
		if v.evErr != nil || v.smpErr != nil {
			return
		}
		s := &smps[i]
		if v.smpErr = v.checkSample(s, base+i); v.smpErr != nil {
			return
		}
		v.smpPrev = s.Time
		v.sampled = true
		if v.monoErr != nil {
			continue
		}
		// Merged order puts an event before a sample of the same time.
		if v.queued > 0 && v.cur[v.head].Time <= s.Time {
			if v.popThrough(s.Time, true); v.monoErr != nil {
				continue
			}
		}
		v.monoErr = v.advance(&v.last, &s.Counters, "sample", base+i)
	}
}

// checkSample returns the structural error of sample i, if any.
func (v *RankValidator) checkSample(s *Sample, i int) error {
	r := v.rank
	switch {
	case s.Time < v.smpPrev:
		return fmt.Errorf("%w: rank %d sample %d out of order", ErrInvalid, r, i)
	case int(s.Rank) != r:
		return fmt.Errorf("%w: rank %d sample %d carries rank %d", ErrInvalid, r, i, s.Rank)
	case s.Stack != callstack.NoStack:
		if _, ok := v.stacks.Get(s.Stack); !ok {
			return fmt.Errorf("%w: rank %d sample %d references unknown stack %d", ErrInvalid, r, i, s.Stack)
		}
	}
	return nil
}

// popThrough merges the queued events up to time t (all of them when
// bounded is false), stopping at the first regression.
func (v *RankValidator) popThrough(t sim.Time, bounded bool) {
	for v.queued > 0 && v.monoErr == nil {
		e := &v.cur[v.head]
		if bounded && e.Time > t {
			return
		}
		// The queued events are the most recent ones.
		i := v.events - v.queued
		v.queued--
		if v.head++; v.head == len(v.cur) {
			v.cur, v.head = nil, 0
			if len(v.rest) > 0 {
				v.cur, v.rest[0] = v.rest[0], nil
				v.rest = v.rest[1:]
			}
		}
		v.monoErr = v.advance(&v.last, &e.Counters, "event", i)
	}
}

// advance moves the running values last to set, the next record of a
// timeline, and returns the regression that stops it, if any.
func (v *RankValidator) advance(last, set *counters.Set, what string, i int) error {
	id, bad := last.Advance(set)
	if !bad {
		return nil
	}
	val, _ := set.Get(id)
	if val < 0 {
		return fmt.Errorf("%w: rank %d %s %d: counter %d negative (%d)", ErrInvalid, v.rank, what, i, int(id), val)
	}
	p, _ := last.Get(id)
	return fmt.Errorf("%w: rank %d %s %d: counter %d regresses (%d after %d)", ErrInvalid, v.rank, what, i, int(id), val, p)
}

// Err returns the first error seen so far, in Finish's order, without the
// end-of-stream nesting check; nil while the rank is valid.
func (v *RankValidator) Err() error {
	switch {
	case v.evErr != nil:
		return v.evErr
	case v.smpErr != nil:
		return v.smpErr
	}
	return v.monoErr
}

// Finish ends the stream and returns the rank's validation error, or nil.
func (v *RankValidator) Finish() error {
	if v.evErr != nil {
		return v.evErr
	}
	if v.depthRegion != 0 {
		return fmt.Errorf("%w: rank %d has %d unclosed regions", ErrInvalid, v.rank, v.depthRegion)
	}
	if v.depthComm != 0 {
		return fmt.Errorf("%w: rank %d has %d unclosed comms", ErrInvalid, v.rank, v.depthComm)
	}
	if v.smpErr != nil {
		return v.smpErr
	}
	v.popThrough(0, false)
	v.release()
	return v.monoErr
}

// releaseOnError lets go of the queued events once an error settled the
// rank's verdict: the merged check never runs again, so a failed rank
// holds none of its records.
func (v *RankValidator) releaseOnError() {
	if v.Err() != nil {
		v.release()
	}
}

func (v *RankValidator) release() {
	v.cur, v.head, v.rest, v.queued = nil, 0, nil, 0
}
