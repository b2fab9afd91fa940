// Package sampler is the coarse-grain sampling runtime: a virtual-timer
// interrupt that periodically captures the hardware counters (under the
// active multiplex group) and the call stack of a rank, writing sample
// records into the trace.
//
// The whole point of the paper is that this sampler can run at a very low
// frequency — far below the granularity of the phases to be detected — and
// folding still recovers the fine structure, because samples from hundreds
// of iterations accumulate at different offsets within the repeated region.
// The per-fire jitter below is not noise to be tolerated but the mechanism
// that guarantees the offsets spread instead of aliasing with the loop
// period.
package sampler

import (
	"fmt"

	"phasefold/internal/callstack"
	"phasefold/internal/counters"
	"phasefold/internal/sim"
	"phasefold/internal/simapp"
	"phasefold/internal/trace"
)

// Options configures one rank's sampler. Two trigger modes exist, matching
// the two mechanisms the folding tool chain supports:
//
//   - time-based (TriggerPeriod == 0): a virtual timer fires every Period.
//   - overflow-based (TriggerPeriod > 0): the PMU fires whenever the
//     Trigger counter advances by TriggerPeriod counts (PAPI overflow
//     sampling). Sample density then follows the counter's rate — busy
//     phases get more samples — and the time between samples varies.
type Options struct {
	// Period is the nominal time between samples (time-based mode).
	Period sim.Duration
	// JitterFrac randomizes each inter-sample gap uniformly in
	// [1-j, 1+j]·(Period or TriggerPeriod), decorrelating the sampling
	// grid from the application's iteration period.
	JitterFrac float64
	// CaptureStacks controls whether call stacks are recorded. Stackless
	// sampling is cheaper; the source-mapping stage needs stacks.
	CaptureStacks bool
	// Seed decorrelates the jitter streams of different ranks.
	Seed uint64
	// Trigger selects the overflow counter (overflow-based mode).
	Trigger counters.ID
	// TriggerPeriod fires a sample every this many counts of Trigger;
	// zero selects time-based sampling.
	TriggerPeriod int64
}

// Validate reports option errors.
func (o Options) Validate() error {
	if o.TriggerPeriod < 0 {
		return fmt.Errorf("sampler: negative trigger period %d", o.TriggerPeriod)
	}
	if o.TriggerPeriod > 0 {
		if !o.Trigger.Valid() {
			return fmt.Errorf("sampler: invalid trigger counter %d", o.Trigger)
		}
	} else if o.Period <= 0 {
		return fmt.Errorf("sampler: non-positive period %d", o.Period)
	}
	if o.JitterFrac < 0 || o.JitterFrac >= 1 {
		return fmt.Errorf("sampler: jitter fraction %v outside [0,1)", o.JitterFrac)
	}
	return nil
}

// Sampler samples one machine. It implements simapp.ExecObserver and fires
// whenever a sample point falls inside an executed segment.
type Sampler struct {
	tr    *trace.Trace
	opt   Options
	rng   *sim.RNG
	next  sim.Time // next fire time (time-based mode)
	ovf   int64    // next overflow threshold (overflow mode); -1 = unset
	count int
}

// Attach creates a sampler for machine m writing into tr, and registers it
// as an execution observer. It panics on invalid options: sampler
// configuration is part of the experiment setup, not user input.
func Attach(tr *trace.Trace, m *simapp.Machine, opt Options) *Sampler {
	if err := opt.Validate(); err != nil {
		panic(err)
	}
	s := &Sampler{
		tr:  tr,
		opt: opt,
		rng: sim.NewRNG(opt.Seed ^ (uint64(m.Rank)+1)*0x9E3779B97F4A7C15),
		ovf: -1,
	}
	if opt.TriggerPeriod == 0 {
		s.next = s.gap() // first fire is one (jittered) period in
	}
	m.AddObserver(s)
	return s
}

// gap draws the next inter-sample time interval (time-based mode).
func (s *Sampler) gap() sim.Duration {
	if s.opt.JitterFrac == 0 {
		return s.opt.Period
	}
	return sim.Duration(s.rng.Jitter(float64(s.opt.Period), s.opt.JitterFrac))
}

// countGap draws the next inter-sample counter distance (overflow mode).
func (s *Sampler) countGap() int64 {
	if s.opt.JitterFrac == 0 {
		return s.opt.TriggerPeriod
	}
	return int64(s.rng.Jitter(float64(s.opt.TriggerPeriod), s.opt.JitterFrac))
}

// Count returns how many samples have fired.
func (s *Sampler) Count() int { return s.count }

// emit records one sample at time t.
func (s *Sampler) emit(m *simapp.Machine, t sim.Time, counterAt func(sim.Time) counters.Set) {
	stack := callstack.NoStack
	if s.opt.CaptureStacks {
		if st := m.Stack(); len(st) > 0 {
			stack = s.tr.Stacks.Intern(st)
		}
	}
	s.tr.AddSample(trace.Sample{
		Time:     t,
		Rank:     m.Rank,
		Counters: counterAt(t).MaskedTo(m.ActiveIDs),
		Stack:    stack,
		Group:    m.ActiveGroup,
	})
	s.count++
}

// Observe implements simapp.ExecObserver: it fires every pending sample
// point that falls within [t0, t1].
func (s *Sampler) Observe(m *simapp.Machine, t0, t1 sim.Time, counterAt func(sim.Time) counters.Set) {
	if s.opt.TriggerPeriod > 0 {
		s.observeOverflow(m, t0, t1, counterAt)
		return
	}
	for s.next <= t1 {
		if s.next >= t0 {
			s.emit(m, s.next, counterAt)
		}
		s.next += s.gap()
	}
}

// observeOverflow fires whenever the trigger counter crosses the next
// threshold within the segment. Counters evolve linearly inside a segment,
// so crossing times follow by inversion.
func (s *Sampler) observeOverflow(m *simapp.Machine, t0, t1 sim.Time, counterAt func(sim.Time) counters.Set) {
	at0, at1 := counterAt(t0), counterAt(t1)
	c0, ok0 := at0.Get(s.opt.Trigger)
	c1, ok1 := at1.Get(s.opt.Trigger)
	if !ok0 || !ok1 {
		return
	}
	if s.ovf < 0 {
		s.ovf = c0 + s.countGap()
	}
	if c1 <= c0 {
		return // trigger counter idle in this segment
	}
	for s.ovf <= c1 {
		if s.ovf > c0 {
			frac := float64(s.ovf-c0) / float64(c1-c0)
			t := t0 + sim.Duration(frac*float64(t1-t0))
			if t > t1 {
				t = t1
			}
			s.emit(m, t, counterAt)
		}
		s.ovf += s.countGap()
	}
}
