package counters

import (
	"fmt"

	"phasefold/internal/sim"
)

// Metric identifies a derived, per-interval performance metric computed from
// counter deltas and elapsed time. These are the metrics the folding reports
// plot: rates per second and per-instruction ratios.
type Metric uint8

// The derived metrics.
const (
	MIPS          Metric = iota // committed instructions per microsecond ("millions of instructions per second")
	IPC                         // instructions per cycle
	GHz                         // cycles per nanosecond
	L1MissRatio                 // L1D misses per 1000 instructions
	L2MissRatio                 // L2 misses per 1000 instructions
	L3MissRatio                 // L3 misses per 1000 instructions
	BranchMissPct               // mispredicted branches per 100 branches
	FPRatio                     // floating point ops per instruction
	MemRatio                    // loads+stores per instruction
	PowerW                      // package power in watts (energy is nanojoules, time nanoseconds)
	NJPerInstr                  // energy per instruction, in nanojoules
	NumMetrics                  // number of derived metrics
)

var metricNames = [NumMetrics]string{
	MIPS:          "MIPS",
	IPC:           "IPC",
	GHz:           "GHz",
	L1MissRatio:   "L1D_misses/Kinstr",
	L2MissRatio:   "L2_misses/Kinstr",
	L3MissRatio:   "L3_misses/Kinstr",
	BranchMissPct: "branch_miss_%",
	FPRatio:       "FP/instr",
	MemRatio:      "mem/instr",
	PowerW:        "power_W",
	NJPerInstr:    "nJ/instr",
}

// String returns the human-readable metric name used in reports.
func (m Metric) String() string {
	if m < NumMetrics {
		return metricNames[m]
	}
	return fmt.Sprintf("metric(%d)", uint8(m))
}

// AllMetrics returns every derived metric in declaration order.
func AllMetrics() []Metric {
	ms := make([]Metric, NumMetrics)
	for i := range ms {
		ms[i] = Metric(i)
	}
	return ms
}

// Inputs returns the counters a metric is derived from. The first element is
// the numerator; the denominator is either a counter or elapsed time.
func (m Metric) Inputs() []ID {
	switch m {
	case MIPS:
		return []ID{Instructions}
	case IPC:
		return []ID{Instructions, Cycles}
	case GHz:
		return []ID{Cycles}
	case L1MissRatio:
		return []ID{L1DMisses, Instructions}
	case L2MissRatio:
		return []ID{L2Misses, Instructions}
	case L3MissRatio:
		return []ID{L3Misses, Instructions}
	case BranchMissPct:
		return []ID{BranchMisses, Branches}
	case FPRatio:
		return []ID{FPOps, Instructions}
	case MemRatio:
		return []ID{Loads, Stores, Instructions}
	case PowerW:
		return []ID{Energy}
	case NJPerInstr:
		return []ID{Energy, Instructions}
	}
	return nil
}

// Compute evaluates metric m over an interval described by the counter delta
// and its duration. The boolean result is false when a required counter is
// not captured or a denominator is zero.
func (m Metric) Compute(delta Set, elapsed sim.Duration) (float64, bool) {
	get := func(id ID) (float64, bool) {
		v, ok := delta.Get(id)
		return float64(v), ok
	}
	switch m {
	case MIPS:
		ins, ok := get(Instructions)
		if !ok || elapsed <= 0 {
			return 0, false
		}
		return ins / (float64(elapsed) / 1e3), true // instructions per microsecond == MIPS
	case IPC:
		ins, ok1 := get(Instructions)
		cyc, ok2 := get(Cycles)
		if !ok1 || !ok2 || cyc == 0 {
			return 0, false
		}
		return ins / cyc, true
	case GHz:
		cyc, ok := get(Cycles)
		if !ok || elapsed <= 0 {
			return 0, false
		}
		return cyc / float64(elapsed), true
	case L1MissRatio, L2MissRatio, L3MissRatio:
		var src ID
		switch m {
		case L1MissRatio:
			src = L1DMisses
		case L2MissRatio:
			src = L2Misses
		default:
			src = L3Misses
		}
		miss, ok1 := get(src)
		ins, ok2 := get(Instructions)
		if !ok1 || !ok2 || ins == 0 {
			return 0, false
		}
		return 1000 * miss / ins, true
	case BranchMissPct:
		mp, ok1 := get(BranchMisses)
		br, ok2 := get(Branches)
		if !ok1 || !ok2 || br == 0 {
			return 0, false
		}
		return 100 * mp / br, true
	case FPRatio:
		fp, ok1 := get(FPOps)
		ins, ok2 := get(Instructions)
		if !ok1 || !ok2 || ins == 0 {
			return 0, false
		}
		return fp / ins, true
	case MemRatio:
		ld, ok1 := get(Loads)
		st, ok2 := get(Stores)
		ins, ok3 := get(Instructions)
		if !ok1 || !ok2 || !ok3 || ins == 0 {
			return 0, false
		}
		return (ld + st) / ins, true
	case PowerW:
		e, ok := get(Energy)
		if !ok || elapsed <= 0 {
			return 0, false
		}
		return e / float64(elapsed), true // nJ per ns == W
	case NJPerInstr:
		e, ok1 := get(Energy)
		ins, ok2 := get(Instructions)
		if !ok1 || !ok2 || ins == 0 {
			return 0, false
		}
		return e / ins, true
	}
	return 0, false
}

// Rates converts a counter delta over an elapsed duration into per-second
// rates for each captured counter. Uncaptured counters yield NaN-free zero
// entries with ok=false in the mask.
func Rates(delta Set, elapsed sim.Duration) (rates [NumIDs]float64, ok [NumIDs]bool) {
	if elapsed <= 0 {
		return rates, ok
	}
	secs := elapsed.Seconds()
	for id := ID(0); id < NumIDs; id++ {
		if v, captured := delta.Get(id); captured {
			rates[id] = float64(v) / secs
			ok[id] = true
		}
	}
	return rates, ok
}
