package simapp

import (
	"math"
	"testing"

	"phasefold/internal/callstack"
	"phasefold/internal/counters"
	"phasefold/internal/sim"
)

func newTestMachine() *Machine {
	return NewMachine(0, 2.0, sim.NewRNG(1))
}

func TestExecAdvancesClockAndCounters(t *testing.T) {
	m := newTestMachine()
	var r Rates
	r[counters.Instructions] = 1e9 // 1 instruction per ns
	m.Exec(1*sim.Millisecond, r)
	if m.Clock.Now() != 1*sim.Millisecond {
		t.Fatalf("clock at %v", m.Clock.Now())
	}
	c := m.Counters()
	if got := ctrOf(c, counters.Instructions); got != 1_000_000 {
		t.Fatalf("instructions = %d, want 1e6", got)
	}
	// Cycles always run at the core frequency (2 GHz -> 2e6 per ms).
	if got := ctrOf(c, counters.Cycles); got != 2_000_000 {
		t.Fatalf("cycles = %d, want 2e6", got)
	}
}

func TestExecOverridesCyclesRate(t *testing.T) {
	m := newTestMachine()
	var r Rates
	r[counters.Cycles] = 123 // must be ignored
	m.Exec(sim.Millisecond, r)
	if got := ctrOf(m.Counters(), counters.Cycles); got != 2_000_000 {
		t.Fatalf("cycles = %d; Exec must pin cycles to the core frequency", got)
	}
}

func TestExecAccumulationHasNoDrift(t *testing.T) {
	// Many small segments must accumulate exactly like one big segment
	// (float accumulators, integerized on read).
	m1 := newTestMachine()
	m2 := newTestMachine()
	var r Rates
	r[counters.Instructions] = 3.7e8 // non-integer per-ns rate
	for i := 0; i < 1000; i++ {
		m1.Exec(10*sim.Microsecond, r)
	}
	m2.Exec(10*sim.Millisecond, r)
	a := ctrOf(m1.Counters(), counters.Instructions)
	b := ctrOf(m2.Counters(), counters.Instructions)
	if math.Abs(float64(a-b)) > 2 {
		t.Fatalf("accumulation drift: %d vs %d", a, b)
	}
}

func TestExecZeroDurationIsNoop(t *testing.T) {
	m := newTestMachine()
	fired := false
	m.AddObserver(observerFunc(func(*Machine, sim.Time, sim.Time, func(sim.Time) counters.Set) { fired = true }))
	m.Exec(0, Rates{})
	if fired || m.Clock.Now() != 0 {
		t.Fatal("zero-duration Exec had effects")
	}
}

func TestExecNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("negative Exec did not panic")
		}
	}()
	newTestMachine().Exec(-1, Rates{})
}

type observerFunc func(*Machine, sim.Time, sim.Time, func(sim.Time) counters.Set)

func (f observerFunc) Observe(m *Machine, t0, t1 sim.Time, at func(sim.Time) counters.Set) {
	f(m, t0, t1, at)
}

func TestObserverInterpolation(t *testing.T) {
	m := newTestMachine()
	var r Rates
	r[counters.Instructions] = 1e9
	var midIns int64
	m.AddObserver(observerFunc(func(m *Machine, t0, t1 sim.Time, at func(sim.Time) counters.Set) {
		mid := (t0 + t1) / 2
		midIns = ctrOf(at(mid), counters.Instructions)
	}))
	m.Exec(1*sim.Millisecond, r)
	if midIns != 500_000 {
		t.Fatalf("mid-segment instructions = %d, want 500000", midIns)
	}
}

func TestObserverQueryOutsideSegmentPanics(t *testing.T) {
	m := newTestMachine()
	m.AddObserver(observerFunc(func(m *Machine, t0, t1 sim.Time, at func(sim.Time) counters.Set) {
		defer func() {
			if recover() == nil {
				t.Error("out-of-segment query did not panic")
			}
		}()
		at(t1 + 1)
	}))
	m.Exec(sim.Microsecond, Rates{})
}

func TestStackDiscipline(t *testing.T) {
	m := newTestMachine()
	m.PushFrame(callstack.Frame{Routine: 1, Line: 10})
	m.PushFrame(callstack.Frame{Routine: 2, Line: 20})
	m.SetLine(25)
	s := m.Stack()
	if len(s) != 2 || s[1].Line != 25 || s[1].Routine != 2 {
		t.Fatalf("stack = %+v", s)
	}
	m.PopFrame()
	if m.StackDepth() != 1 {
		t.Fatalf("depth = %d", m.StackDepth())
	}
	// Stack() must return a copy.
	s2 := m.Stack()
	s2[0].Line = 999
	if m.Stack()[0].Line == 999 {
		t.Fatal("Stack() shares storage")
	}
}

func TestPopEmptyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("PopFrame on empty stack did not panic")
		}
	}()
	newTestMachine().PopFrame()
}

func TestSetLineEmptyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("SetLine on empty stack did not panic")
		}
	}()
	newTestMachine().SetLine(3)
}

func TestCapturedCountersMasking(t *testing.T) {
	m := newTestMachine()
	var r Rates
	r[counters.Instructions] = 1e9
	r[counters.L1DMisses] = 1e6
	m.Exec(sim.Millisecond, r)
	m.ActiveIDs = []counters.ID{counters.Instructions}
	cc := m.CapturedCounters()
	if _, ok := cc.Get(counters.L1DMisses); ok {
		t.Fatal("masked counter leaked through CapturedCounters")
	}
	if v, ok := cc.Get(counters.Instructions); !ok || v != 1_000_000 {
		t.Fatalf("captured instructions = (%d, %v)", v, ok)
	}
}

func TestNewMachinePanicsOnBadFreq(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("zero frequency did not panic")
		}
	}()
	NewMachine(0, 0, sim.NewRNG(1))
}

func TestMachinesPerRankDiffer(t *testing.T) {
	root := sim.NewRNG(42)
	m0 := NewMachine(0, 2, root)
	m1 := NewMachine(1, 2, root)
	if m0.RNG.Uint64() == m1.RNG.Uint64() {
		t.Fatal("per-rank RNG streams identical")
	}
}

// ctrOf returns counter id of s, which the machine always captures.
func ctrOf(s counters.Set, id counters.ID) int64 {
	v, _ := s.Get(id)
	return v
}
