// Package simapp is the execution substrate that stands in for the paper's
// real testbed: a deterministic virtual machine that "executes" SPMD
// mini-applications, advancing a virtual clock and accumulating hardware
// counters according to per-phase rate models, while exposing the same
// observation surface a real node exposes to a tracing runtime — probe
// points, periodic sampling, call stacks and PMU counter reads.
//
// The substitution preserves the behaviour that matters to the paper's
// mechanism: the analysis pipeline only ever sees (events, samples,
// counters, call stacks), and the virtual machine produces exactly those,
// with the decisive advantage that the ground-truth phase structure is known
// and reconstruction error can be measured exactly.
package simapp

import (
	"fmt"

	"phasefold/internal/callstack"
	"phasefold/internal/counters"
	"phasefold/internal/sim"
)

// ExecObserver is notified of every executed segment. Samplers attach here:
// within the callback they may query the counter state at any instant inside
// the segment, which models a sampling interrupt firing mid-segment.
type ExecObserver interface {
	// Observe reports execution from t0 to t1. counterAt returns the
	// cumulative (unmasked) counter state at any t in [t0, t1].
	Observe(m *Machine, t0, t1 sim.Time, counterAt func(sim.Time) counters.Set)
}

// Machine is one rank's virtual CPU: a clock, cumulative counters, the
// current call stack, and the PMU programming state (active multiplex
// group). All mutation happens through Exec, which keeps the counter
// evolution piecewise linear in time — the idealization the folding
// literature assumes for instantaneous-rate recovery.
type Machine struct {
	// Rank is the process rank this machine simulates.
	Rank int32
	// Clock is the rank's virtual clock.
	Clock *sim.Clock
	// RNG drives all stochastic behaviour of this rank.
	RNG *sim.RNG
	// FreqGHz is the core clock frequency; Cycles advance at this rate
	// regardless of the workload's other rates.
	FreqGHz float64
	// Power models the package energy counter; Exec derives the Energy
	// rate from the workload rates through it.
	Power PowerModel

	// ActiveGroup is the index of the PMU multiplex group currently
	// programmed; the tracing runtime rotates it. CapturedCounters masks
	// reads to ActiveIDs.
	ActiveGroup uint8
	// ActiveIDs are the counters readable under the active group.
	ActiveIDs []counters.ID

	accum     [counters.NumIDs]float64
	stack     callstack.Stack
	observers []ExecObserver
}

// NewMachine returns a machine for the given rank with its own clock and a
// generator split from parent for determinism across ranks.
func NewMachine(rank int32, freqGHz float64, parent *sim.RNG) *Machine {
	if freqGHz <= 0 {
		panic(fmt.Sprintf("simapp: non-positive frequency %v", freqGHz))
	}
	return &Machine{
		Rank:      rank,
		Clock:     sim.NewClock(),
		RNG:       parent.Split(),
		FreqGHz:   freqGHz,
		Power:     DefaultPowerModel(),
		ActiveIDs: counters.AllIDs(),
	}
}

// AddObserver attaches an execution observer (e.g. a sampler).
func (m *Machine) AddObserver(o ExecObserver) {
	m.observers = append(m.observers, o)
}

// Rates is the per-counter accumulation rate of a segment, in counts per
// second of virtual time.
type Rates [counters.NumIDs]float64

// Exec advances the machine by d while counters accumulate linearly at the
// given rates. Cycles always advance at the core frequency; any Cycles rate
// in r is ignored. Observers are notified before state is committed so they
// can interpolate counter values mid-segment.
func (m *Machine) Exec(d sim.Duration, r Rates) {
	if d < 0 {
		panic("simapp: Exec with negative duration")
	}
	if d == 0 {
		return
	}
	r[counters.Cycles] = m.FreqGHz * 1e9
	r[counters.Energy] = m.Power.EnergyRate(r)
	t0 := m.Clock.Now()
	t1 := t0 + d
	counterAt := func(t sim.Time) counters.Set {
		if t < t0 || t > t1 {
			panic(fmt.Sprintf("simapp: counter query at %d outside segment [%d,%d]", t, t0, t1))
		}
		dt := (t - t0).Seconds()
		var s counters.Set
		for id := counters.ID(0); id < counters.NumIDs; id++ {
			s.Put(id, int64(m.accum[id]+r[id]*dt))
		}
		return s
	}
	for _, o := range m.observers {
		o.Observe(m, t0, t1, counterAt)
	}
	secs := d.Seconds()
	for i := range m.accum {
		m.accum[i] += r[i] * secs
	}
	m.Clock.AdvanceTo(t1)
}

// Counters returns the cumulative unmasked counter state.
func (m *Machine) Counters() counters.Set {
	var s counters.Set
	for id := counters.ID(0); id < counters.NumIDs; id++ {
		s.Put(id, int64(m.accum[id]))
	}
	return s
}

// CapturedCounters returns the counter state as the PMU exposes it: masked
// to the active multiplex group.
func (m *Machine) CapturedCounters() counters.Set {
	return m.Counters().MaskedTo(m.ActiveIDs)
}

// PushFrame enters a routine: the frame joins the call stack.
func (m *Machine) PushFrame(f callstack.Frame) {
	m.stack = append(m.stack, f)
}

// PopFrame leaves the innermost routine. It panics on an empty stack, which
// indicates a workload model bug.
func (m *Machine) PopFrame() {
	if len(m.stack) == 0 {
		panic("simapp: PopFrame on empty stack")
	}
	m.stack = m.stack[:len(m.stack)-1]
}

// SetLine updates the source line of the executing (leaf) frame, modelling
// the program counter moving through a routine body.
func (m *Machine) SetLine(line int) {
	if len(m.stack) == 0 {
		panic("simapp: SetLine with empty stack")
	}
	m.stack[len(m.stack)-1].Line = line
}

// Stack returns a copy of the current call stack, outermost first.
func (m *Machine) Stack() callstack.Stack {
	return m.stack.Clone()
}

// StackDepth returns the current call depth.
func (m *Machine) StackDepth() int { return len(m.stack) }
