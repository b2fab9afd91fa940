package counters

import (
	"math"
	"testing"

	"phasefold/internal/sim"
)

// delta returns a fully captured counter delta for a synthetic interval.
func testDelta() Set {
	var d Set
	d.Put(Instructions, 2_000_000)
	d.Put(Cycles, 1_000_000)
	d.Put(L1DMisses, 40_000)
	d.Put(L2Misses, 10_000)
	d.Put(L3Misses, 2_000)
	d.Put(Loads, 600_000)
	d.Put(Stores, 200_000)
	d.Put(Branches, 100_000)
	d.Put(BranchMisses, 5_000)
	d.Put(FPOps, 800_000)
	return d
}

func TestMetricValues(t *testing.T) {
	d := testDelta()
	elapsed := sim.Duration(500 * sim.Microsecond)
	cases := []struct {
		m    Metric
		want float64
	}{
		{MIPS, 2_000_000 / 500.0}, // instructions per microsecond
		{IPC, 2.0},                // 2M / 1M
		{GHz, 1_000_000 / 500e3},  // cycles per ns
		{L1MissRatio, 20},         // 40k per 2M instr * 1000
		{L2MissRatio, 5},
		{L3MissRatio, 1},
		{BranchMissPct, 5},
		{FPRatio, 0.4},
		{MemRatio, 0.4},
	}
	for _, c := range cases {
		got, ok := c.m.Compute(d, elapsed)
		if !ok {
			t.Errorf("%v not computable", c.m)
			continue
		}
		if math.Abs(got-c.want) > 1e-9 {
			t.Errorf("%v = %v, want %v", c.m, got, c.want)
		}
	}
}

func TestMetricMissingInput(t *testing.T) {
	d := testDelta()
	d.Drop(Cycles)
	if _, ok := IPC.Compute(d, sim.Millisecond); ok {
		t.Fatal("IPC computed without cycles")
	}
	if _, ok := MIPS.Compute(d, sim.Millisecond); !ok {
		t.Fatal("MIPS should not need cycles")
	}
}

func TestMetricZeroDenominator(t *testing.T) {
	var d Set
	d.Put(Instructions, 0)
	d.Put(L1DMisses, 10)
	if _, ok := L1MissRatio.Compute(d, sim.Millisecond); ok {
		t.Fatal("miss ratio computed with zero instructions")
	}
	if _, ok := MIPS.Compute(testDelta(), 0); ok {
		t.Fatal("MIPS computed with zero elapsed time")
	}
}

func TestMetricNames(t *testing.T) {
	seen := make(map[string]bool)
	for _, m := range AllMetrics() {
		name := m.String()
		if name == "" || seen[name] {
			t.Fatalf("metric %d has empty or duplicate name %q", m, name)
		}
		seen[name] = true
	}
	if Metric(200).String() == "" {
		t.Fatal("invalid metric String is empty")
	}
}

func TestMetricInputsDeclared(t *testing.T) {
	for _, m := range AllMetrics() {
		if len(m.Inputs()) == 0 {
			t.Errorf("metric %v declares no inputs", m)
		}
		for _, id := range m.Inputs() {
			if !id.Valid() {
				t.Errorf("metric %v has invalid input %v", m, id)
			}
		}
	}
}

func TestRates(t *testing.T) {
	d := testDelta()
	rates, ok := Rates(d, 2*sim.Second)
	if !ok[Instructions] {
		t.Fatal("instructions rate not available")
	}
	if got, want := rates[Instructions], 1_000_000.0; got != want {
		t.Fatalf("instruction rate %v, want %v", got, want)
	}
	d.Drop(FPOps)
	rates, okm := Rates(d, sim.Second)
	if okm[FPOps] {
		t.Fatal("rate computed for Missing counter")
	}
	if rates[FPOps] != 0 {
		t.Fatal("Missing counter rate not zero")
	}
	if _, ok2 := Rates(d, 0); ok2[Instructions] {
		t.Fatal("rates computed over zero interval")
	}
}
