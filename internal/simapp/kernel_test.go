package simapp

import (
	"math"
	"testing"

	"phasefold/internal/callstack"
	"phasefold/internal/counters"
	"phasefold/internal/sim"
)

func testKernel() *Kernel {
	return &Kernel{
		Name: "test.k", File: "t.c", StartLine: 1, EndLine: 50,
		Phases: []PhaseSpec{
			{Name: "a", Line: 10, Dur: 100 * sim.Microsecond, IPC: 1.0, FPFrac: 0.5},
			{Name: "b", Line: 30, Dur: 300 * sim.Microsecond, IPC: 2.0},
		},
	}
}

func TestKernelDefineAndExec(t *testing.T) {
	syms := callstack.NewSymbolTable()
	k := testKernel()
	k.Define(syms)
	m := NewMachine(0, 2.0, sim.NewRNG(1))
	k.Exec(m, 1)
	if m.StackDepth() != 0 {
		t.Fatal("kernel left frames on the stack")
	}
	if got, want := m.Clock.Now(), 400*sim.Microsecond; got != want {
		t.Fatalf("duration %v, want %v", got, want)
	}
	// instructions: 100us at IPC 1 + 300us at IPC 2 (at 2 GHz):
	// 100e3ns*2 + 300e3ns*4 = 200e3+1200e3... per ns: IPC*2 instr.
	want := int64(100_000*2 + 300_000*4)
	if got := ctrOf(m.Counters(), counters.Instructions); math.Abs(float64(got-want)) > 2 {
		t.Fatalf("instructions %d, want %d", got, want)
	}
}

func TestKernelExecScale(t *testing.T) {
	syms := callstack.NewSymbolTable()
	k := testKernel()
	k.Define(syms)
	m := NewMachine(0, 2.0, sim.NewRNG(1))
	k.Exec(m, 2)
	if got, want := m.Clock.Now(), 800*sim.Microsecond; got != want {
		t.Fatalf("scaled duration %v, want %v", got, want)
	}
}

func TestKernelStackDuringExec(t *testing.T) {
	syms := callstack.NewSymbolTable()
	k := testKernel()
	k.Define(syms)
	m := NewMachine(0, 2.0, sim.NewRNG(1))
	var lines []int
	m.AddObserver(observerFunc(func(m *Machine, t0, t1 sim.Time, at func(sim.Time) counters.Set) {
		s := m.Stack()
		if len(s) != 1 || s[0].Routine != k.Routine() {
			t.Errorf("stack during exec = %+v", s)
		}
		lines = append(lines, s[0].Line)
	}))
	k.Exec(m, 1)
	if len(lines) != 2 || lines[0] != 10 || lines[1] != 30 {
		t.Fatalf("observed lines %v, want [10 30]", lines)
	}
}

func TestKernelTruthPhases(t *testing.T) {
	k := testKernel()
	phases := k.TruthPhases(2.0)
	if len(phases) != 2 {
		t.Fatalf("got %d truth phases", len(phases))
	}
	if math.Abs(phases[0].FracEnd-0.25) > 1e-12 {
		t.Fatalf("phase a ends at %v, want 0.25", phases[0].FracEnd)
	}
	if phases[1].FracEnd != 1 {
		t.Fatalf("last phase ends at %v, want exactly 1", phases[1].FracEnd)
	}
	// Rates: IPC 1 at 2 GHz = 2e9 instructions/s -> MIPS 2000.
	if got := phases[0].MIPS(); math.Abs(got-2000) > 1e-9 {
		t.Fatalf("phase a MIPS %v, want 2000", got)
	}
	if phases[0].Routine != "test.k" || phases[0].Line != 10 {
		t.Fatalf("phase a attribution %q:%d", phases[0].Routine, phases[0].Line)
	}
}

func TestKernelPanics(t *testing.T) {
	syms := callstack.NewSymbolTable()
	cases := map[string]func(){
		"exec before define": func() {
			k := testKernel()
			k.Exec(NewMachine(0, 2, sim.NewRNG(1)), 1)
		},
		"no phases": func() {
			k := &Kernel{Name: "empty", File: "e.c", StartLine: 1, EndLine: 2}
			k.Define(syms)
		},
		"bad phase": func() {
			k := &Kernel{Name: "bad", File: "b.c", StartLine: 1, EndLine: 2,
				Phases: []PhaseSpec{{Name: "p", Dur: -1, IPC: 1}}}
			k.Define(syms)
		},
		"zero scale": func() {
			k := testKernel()
			k.Define(syms)
			k.Exec(NewMachine(0, 2, sim.NewRNG(1)), 0)
		},
		"routine before define": func() {
			k := testKernel()
			k.Routine()
		},
	}
	for name, fn := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: did not panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestPhaseSpecValidate(t *testing.T) {
	good := PhaseSpec{Name: "ok", Dur: sim.Microsecond, IPC: 1}
	if err := good.Validate(); err != nil {
		t.Fatalf("good spec rejected: %v", err)
	}
	bad := []PhaseSpec{
		{Dur: sim.Microsecond, IPC: 1},                                // no name
		{Name: "x", IPC: 1},                                           // no duration
		{Name: "x", Dur: sim.Microsecond},                             // no IPC
		{Name: "x", Dur: sim.Microsecond, IPC: 1, JitterFrac: 0.9},    // jitter too big
		{Name: "x", Dur: sim.Microsecond, IPC: 1, LoadFrac: -0.1},     // negative mix
		{Name: "x", Dur: sim.Microsecond, IPC: 1, BranchMissPct: 150}, // pct out of range
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("bad spec %d accepted", i)
		}
	}
}

func TestPhaseJitterMovesDuration(t *testing.T) {
	syms := callstack.NewSymbolTable()
	k := &Kernel{Name: "j", File: "j.c", StartLine: 1, EndLine: 5,
		Phases: []PhaseSpec{{Name: "p", Line: 2, Dur: 100 * sim.Microsecond, IPC: 1, JitterFrac: 0.2}}}
	k.Define(syms)
	durs := make(map[sim.Time]bool)
	for i := 0; i < 5; i++ {
		m := NewMachine(int32(i), 2, sim.NewRNG(uint64(i+1)))
		k.Exec(m, 1)
		d := m.Clock.Now()
		if d < 80*sim.Microsecond || d > 120*sim.Microsecond {
			t.Fatalf("jittered duration %v outside ±20%%", d)
		}
		durs[d] = true
	}
	if len(durs) < 2 {
		t.Fatal("jitter produced identical durations across seeds")
	}
}
