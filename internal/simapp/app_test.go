package simapp

import (
	"math"
	"testing"

	"phasefold/internal/callstack"
	"phasefold/internal/counters"
	"phasefold/internal/sim"
)

// countingInstr counts probe invocations without writing a trace.
type countingInstr struct {
	iters, regions, comms int
	lastIter              int64
}

func (c *countingInstr) IterBegin(m *Machine, iter int64) { c.iters++; c.lastIter = iter }
func (c *countingInstr) IterEnd(m *Machine, iter int64)   {}
func (c *countingInstr) RegionEnter(m *Machine, r int64)  { c.regions++ }
func (c *countingInstr) RegionExit(m *Machine, r int64)   {}
func (c *countingInstr) CommEnter(m *Machine, p int64)    { c.comms++ }
func (c *countingInstr) CommExit(m *Machine, p int64)     {}

func TestRunnerDrivesAllApps(t *testing.T) {
	for _, name := range AppNames() {
		app, err := NewApp(name)
		if err != nil {
			t.Fatal(err)
		}
		syms := callstack.NewSymbolTable()
		ci := &countingInstr{}
		cfg := Config{Ranks: 2, Iterations: 10, Seed: 7, FreqGHz: 2}
		truth, err := (&Runner{}).Run(app, cfg, syms, ci)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if ci.iters != cfg.Ranks*cfg.Iterations {
			t.Errorf("%s: %d IterBegin probes, want %d", name, ci.iters, cfg.Ranks*cfg.Iterations)
		}
		if ci.regions == 0 {
			t.Errorf("%s: no region probes", name)
		}
		if len(truth.Regions) == 0 {
			t.Errorf("%s: no ground truth recorded", name)
		}
		if syms.Len() == 0 {
			t.Errorf("%s: no routines defined", name)
		}
	}
}

func TestRunnerRejectsBadConfig(t *testing.T) {
	app, _ := NewApp("multiphase")
	bad := []Config{
		{Ranks: 0, Iterations: 1, FreqGHz: 2},
		{Ranks: 1, Iterations: 0, FreqGHz: 2},
		{Ranks: 1, Iterations: 1, FreqGHz: 0},
	}
	for i, cfg := range bad {
		if _, err := (&Runner{}).Run(app, cfg, callstack.NewSymbolTable(), &countingInstr{}); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
}

func TestRunnerDeterminism(t *testing.T) {
	run := func() sim.Time {
		app, _ := NewApp("cg")
		var last sim.Time
		track := &trackingInstr{}
		cfg := Config{Ranks: 2, Iterations: 20, Seed: 99, FreqGHz: 2}
		if _, err := (&Runner{}).Run(app, cfg, callstack.NewSymbolTable(), track); err != nil {
			t.Fatal(err)
		}
		last = track.lastTime
		return last
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("same seed, different end times: %v vs %v", a, b)
	}
}

type trackingInstr struct {
	countingInstr
	lastTime sim.Time
}

func (tr *trackingInstr) IterEnd(m *Machine, iter int64) { tr.lastTime = m.Clock.Now() }

func TestRunnerAttachHook(t *testing.T) {
	app, _ := NewApp("multiphase")
	attached := 0
	r := &Runner{Attach: func(m *Machine) { attached++ }}
	cfg := Config{Ranks: 3, Iterations: 2, Seed: 1, FreqGHz: 2}
	if _, err := r.Run(app, cfg, callstack.NewSymbolTable(), &countingInstr{}); err != nil {
		t.Fatal(err)
	}
	if attached != 3 {
		t.Fatalf("Attach called %d times, want 3", attached)
	}
}

func TestRegionTruthFromKernels(t *testing.T) {
	syms := callstack.NewSymbolTable()
	k1 := &Kernel{Name: "a", File: "a.c", StartLine: 1, EndLine: 5,
		Phases: []PhaseSpec{{Name: "p1", Line: 2, Dur: 100 * sim.Microsecond, IPC: 1}}}
	k2 := &Kernel{Name: "b", File: "b.c", StartLine: 1, EndLine: 5,
		Phases: []PhaseSpec{
			{Name: "p2", Line: 2, Dur: 100 * sim.Microsecond, IPC: 2},
			{Name: "p3", Line: 4, Dur: 200 * sim.Microsecond, IPC: 3},
		}}
	k1.Define(syms)
	k2.Define(syms)
	rt := RegionTruthFromKernels(5, "combo", 2.0, k1, k2)
	if rt.Region != 5 || len(rt.Phases) != 3 {
		t.Fatalf("region truth = %+v", rt)
	}
	wantEnds := []float64{0.25, 0.5, 1.0}
	for i, w := range wantEnds {
		if math.Abs(rt.Phases[i].FracEnd-w) > 1e-12 {
			t.Errorf("phase %d ends at %v, want %v", i, rt.Phases[i].FracEnd, w)
		}
	}
	bps := rt.Breakpoints()
	if len(bps) != 2 || bps[0] != 0.25 || bps[1] != 0.5 {
		t.Fatalf("breakpoints = %v", bps)
	}
	// RateAt must select the right phase.
	if got := rt.RateAt(0.1)[counters.Instructions]; math.Abs(got-2e9) > 1 {
		t.Errorf("RateAt(0.1) = %v, want 2e9", got)
	}
	if got := rt.RateAt(0.7)[counters.Instructions]; math.Abs(got-6e9) > 1 {
		t.Errorf("RateAt(0.7) = %v, want 6e9", got)
	}
	if got := rt.RateAt(1.5)[counters.Instructions]; math.Abs(got-6e9) > 1 {
		t.Errorf("RateAt past end = %v, want last phase", got)
	}
}

func TestTruthDuplicatePanics(t *testing.T) {
	tr := NewTruth()
	rt := &RegionTruth{Region: 1, Phases: []TruthPhase{{FracEnd: 1}}}
	tr.Add(rt)
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate truth did not panic")
		}
	}()
	tr.Add(rt)
}

func TestNewAppUnknown(t *testing.T) {
	if _, err := NewApp("definitely-not-an-app"); err == nil {
		t.Fatal("unknown app accepted")
	}
}

func TestOptimizedVariantsAreFaster(t *testing.T) {
	endTime := func(name string) sim.Time {
		app, err := NewApp(name)
		if err != nil {
			t.Fatal(err)
		}
		track := &trackingInstr{}
		cfg := Config{Ranks: 1, Iterations: 30, Seed: 5, FreqGHz: 2}
		if _, err := (&Runner{}).Run(app, cfg, callstack.NewSymbolTable(), track); err != nil {
			t.Fatal(err)
		}
		return track.lastTime
	}
	for _, pair := range [][2]string{{"cg", "cg-opt"}, {"stencil", "stencil-opt"}, {"nbody", "nbody-opt"}} {
		base, opt := endTime(pair[0]), endTime(pair[1])
		if opt >= base {
			t.Errorf("%s (%v) not faster than %s (%v)", pair[1], opt, pair[0], base)
		}
		speedup := float64(base) / float64(opt)
		if speedup < 1.05 || speedup > 2.0 {
			t.Errorf("%s speedup %.2fx outside the paper's plausible 1.05-2.0x band", pair[1], speedup)
		}
	}
}

func TestCommWrapsProbes(t *testing.T) {
	m := NewMachine(0, 2, sim.NewRNG(1))
	ci := &countingInstr{}
	Comm(m, ci, -1, 10*sim.Microsecond)
	if ci.comms != 1 {
		t.Fatalf("CommEnter fired %d times", ci.comms)
	}
	if m.Clock.Now() != 10*sim.Microsecond {
		t.Fatalf("comm advanced clock to %v", m.Clock.Now())
	}
	// Comm must accumulate some (spin) instructions but far fewer than
	// compute would.
	ins := ctrOf(m.Counters(), counters.Instructions)
	if ins <= 0 || ins > 10_000*2 {
		t.Fatalf("comm instructions = %d", ins)
	}
}

func TestTruthFractionsAreMonotone(t *testing.T) {
	for _, name := range AppNames() {
		app, _ := NewApp(name)
		cfg := Config{Ranks: 1, Iterations: 1, Seed: 1, FreqGHz: 2}
		truth, err := (&Runner{}).Run(app, cfg, callstack.NewSymbolTable(), &countingInstr{})
		if err != nil {
			t.Fatal(err)
		}
		for region, rt := range truth.Regions {
			prev := 0.0
			for i, p := range rt.Phases {
				if p.FracEnd <= prev {
					t.Errorf("%s region %d phase %d: FracEnd %v not increasing", name, region, i, p.FracEnd)
				}
				prev = p.FracEnd
			}
			if math.Abs(prev-1) > 1e-12 {
				t.Errorf("%s region %d: last FracEnd %v != 1", name, region, prev)
			}
		}
	}
}
