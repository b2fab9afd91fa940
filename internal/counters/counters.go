// Package counters models hardware performance counters the way a
// PAPI-based tracing runtime sees them: a small set of monotonically
// increasing 64-bit counts read at discrete points in time, from which
// derived metrics (IPC, MIPS, miss ratios) are computed over intervals.
//
// The package also implements counter-group multiplexing and the
// extrapolation scheme of González et al. (ICPADS 2010): processors expose
// more counters than can be read simultaneously, so the tracing runtime
// rotates through counter groups across iterations and the analysis
// reconstructs the full metric set per region afterwards.
package counters

import "fmt"

// ID identifies one hardware event. The set mirrors the PAPI preset events
// the folding papers report (instructions, cycles, cache levels, branches,
// floating point), which is enough to express every derived metric used in
// the evaluation.
type ID uint8

// The counter identifiers. NumIDs must stay last.
const (
	Instructions ID = iota // PAPI_TOT_INS: committed instructions
	Cycles                 // PAPI_TOT_CYC: core cycles
	L1DMisses              // PAPI_L1_DCM: L1 data cache misses
	L2Misses               // PAPI_L2_TCM: L2 cache misses
	L3Misses               // PAPI_L3_TCM: last-level cache misses
	Loads                  // PAPI_LD_INS: load instructions
	Stores                 // PAPI_SR_INS: store instructions
	Branches               // PAPI_BR_INS: branch instructions
	BranchMisses           // PAPI_BR_MSP: mispredicted branches
	FPOps                  // PAPI_FP_OPS: floating point operations
	Energy                 // RAPL_PKG_ENERGY: package energy in nanojoules
	NumIDs                 // number of counter identifiers
)

var idNames = [NumIDs]string{
	Instructions: "PAPI_TOT_INS",
	Cycles:       "PAPI_TOT_CYC",
	L1DMisses:    "PAPI_L1_DCM",
	L2Misses:     "PAPI_L2_TCM",
	L3Misses:     "PAPI_L3_TCM",
	Loads:        "PAPI_LD_INS",
	Stores:       "PAPI_SR_INS",
	Branches:     "PAPI_BR_INS",
	BranchMisses: "PAPI_BR_MSP",
	FPOps:        "PAPI_FP_OPS",
	Energy:       "RAPL_PKG_ENERGY",
}

// String returns the PAPI-style name of the counter.
func (id ID) String() string {
	if id < NumIDs {
		return idNames[id]
	}
	return fmt.Sprintf("counter(%d)", uint8(id))
}

// Valid reports whether id names a real counter.
func (id ID) Valid() bool { return id < NumIDs }

// ParseID resolves a PAPI-style name back to an ID.
func ParseID(name string) (ID, error) {
	for i := ID(0); i < NumIDs; i++ {
		if idNames[i] == name {
			return i, nil
		}
	}
	return 0, fmt.Errorf("counters: unknown counter %q", name)
}

// AllIDs returns every counter identifier in declaration order.
func AllIDs() []ID {
	ids := make([]ID, NumIDs)
	for i := range ids {
		ids[i] = ID(i)
	}
	return ids
}

// Set is a snapshot of all counters at one instant, together with which
// counters the reading hardware group covered. Every int64 is a valid
// counter value; whether a counter was captured lives in a separate mask
// (stored inverted, so the zero Set is every counter captured at zero).
type Set struct {
	v       [NumIDs]int64
	missing uint16 // bit id set: counter id was not captured
}

// The missing mask holds one bit per counter id.
var _ [16 - NumIDs]struct{}

// allMask has one bit set per counter id.
const allMask = 1<<NumIDs - 1

// Put records v as the captured value of counter id.
func (s *Set) Put(id ID, v int64) {
	if !id.Valid() {
		return
	}
	s.v[id] = v
	s.missing &^= 1 << id
}

// Drop marks counter id as not captured.
func (s *Set) Drop(id ID) {
	if !id.Valid() {
		return
	}
	s.v[id] = 0
	s.missing |= 1 << id
}

// Sub returns the per-counter delta s - base. A counter missing on either
// side is missing in the delta.
func (s Set) Sub(base Set) Set {
	d := Set{missing: s.missing | base.missing}
	for i := range d.v {
		if d.missing&(1<<i) == 0 {
			d.v[i] = s.v[i] - base.v[i]
		}
	}
	return d
}

// Add returns the per-counter sum s + o, propagating missing counters.
func (s Set) Add(o Set) Set {
	d := Set{missing: s.missing | o.missing}
	for i := range d.v {
		if d.missing&(1<<i) == 0 {
			d.v[i] = s.v[i] + o.v[i]
		}
	}
	return d
}

// Get returns the value of counter id and whether it was captured.
func (s *Set) Get(id ID) (int64, bool) {
	if !id.Valid() || s.missing&(1<<id) != 0 {
		return 0, false
	}
	return s.v[id], true
}

// Captured returns the presence mask: bit id is set when counter id was
// captured.
func (s *Set) Captured() uint16 { return ^s.missing & allMask }

// Complete reports whether every counter in the set was captured.
func (s Set) Complete() bool { return s.missing == 0 }

// MaskedTo returns a copy of s where every counter outside keep is missing.
func (s Set) MaskedTo(keep []ID) Set {
	out := AllMissing()
	for _, id := range keep {
		if id.Valid() {
			out.v[id] = s.v[id]
			out.missing &^= ^s.missing & (1 << id)
		}
	}
	return out
}

// AllMissing returns a set with every counter marked not captured.
func AllMissing() Set { return Set{missing: allMask} }

// Advance moves s, the running values of a stream of cumulative
// snapshots, to next: every counter next captured takes its value. It
// stops at the first counter next captured, in id order, whose value is
// negative or below the value s captured, and returns it with bad set; s
// still holds that counter's previous value.
func (s *Set) Advance(next *Set) (id ID, bad bool) {
	for i := range next.v {
		if next.missing&(1<<i) != 0 {
			continue
		}
		v := next.v[i]
		if v < 0 || (s.missing&(1<<i) == 0 && v < s.v[i]) {
			return ID(i), true
		}
		s.v[i] = v
		s.missing &^= 1 << i
	}
	return 0, false
}

// String renders the values in id order, a counter that was not captured
// as -1.
func (s Set) String() string {
	var vals [NumIDs]int64
	for id := range vals {
		vals[id] = -1
		if v, ok := s.Get(ID(id)); ok {
			vals[id] = v
		}
	}
	return fmt.Sprint(vals)
}
