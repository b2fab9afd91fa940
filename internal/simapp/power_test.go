package simapp

import (
	"math"
	"testing"

	"phasefold/internal/counters"
	"phasefold/internal/sim"
)

func TestPowerModelComponents(t *testing.T) {
	p := PowerModel{BaseW: 10, PerIPCW: 5, NJPerL3Miss: 100, NJPerFPOp: 1}
	var r Rates
	r[counters.Cycles] = 2e9
	r[counters.Instructions] = 4e9 // IPC 2
	r[counters.L3Misses] = 1e6
	r[counters.FPOps] = 1e9
	// 10 + 5*2 = 20 W core; + 1e6*100 nJ/s = 0.1 W; + 1e9*1 nJ/s = 1 W.
	if got := p.PowerW(r); math.Abs(got-21.1) > 1e-9 {
		t.Fatalf("PowerW = %v, want 21.1", got)
	}
	if got := p.EnergyRate(r); math.Abs(got-21.1e9) > 1 {
		t.Fatalf("EnergyRate = %v", got)
	}
}

func TestPowerModelZeroCycles(t *testing.T) {
	p := DefaultPowerModel()
	var r Rates
	if got := p.PowerW(r); math.Abs(got-p.BaseW) > 1e-9 {
		t.Fatalf("idle power %v, want base %v", got, p.BaseW)
	}
}

func TestMachineAccumulatesEnergy(t *testing.T) {
	m := NewMachine(0, 2.0, sim.NewRNG(1))
	var r Rates
	r[counters.Instructions] = 4e9 // IPC 2 at 2 GHz
	m.Exec(sim.Millisecond, r)
	e := ctrOf(m.Counters(), counters.Energy)
	// Default model: 15 + 9*2 = 33 W -> 33e9 nJ/s -> 33e6 nJ per ms.
	want := DefaultPowerModel().EnergyRate(Rates{
		counters.Instructions: 4e9, counters.Cycles: 2e9,
	}) / 1000
	if math.Abs(float64(e)-want) > want*0.01 {
		t.Fatalf("energy after 1 ms = %d nJ, want ~%.0f", e, want)
	}
}

func TestTruthRatesIncludeEnergy(t *testing.T) {
	k := testKernel()
	for _, ph := range k.TruthPhases(2.0) {
		if ph.Rates[counters.Energy] <= 0 {
			t.Fatalf("truth phase %q has no energy rate", ph.Name)
		}
		// Truth energy rate must match what a machine would accumulate:
		// both go through DefaultPowerModel.
		watts := ph.Rates[counters.Energy] / 1e9
		if watts < 10 || watts > 60 {
			t.Fatalf("truth phase %q power %v W implausible", ph.Name, watts)
		}
	}
}

func TestEnergyMonotoneAcrossWorkloads(t *testing.T) {
	// Higher IPC at equal duration must accumulate more energy.
	run := func(ipc float64) int64 {
		m := NewMachine(0, 2.0, sim.NewRNG(1))
		var r Rates
		r[counters.Instructions] = ipc * 2e9
		m.Exec(sim.Millisecond, r)
		return ctrOf(m.Counters(), counters.Energy)
	}
	if run(2.5) <= run(0.5) {
		t.Fatal("energy not monotone in IPC")
	}
}
