package counters

import "fmt"

// Group is a set of counters that the (simulated) PMU can read
// simultaneously. Real processors only expose a handful of programmable
// counter registers; reading the full event set requires rotating through
// groups, one group per burst or per sampling window.
type Group struct {
	// Name labels the group in traces and reports.
	Name string
	// IDs are the counters captured while the group is active.
	IDs []ID
}

// Schedule is a rotation of counter groups. The tracing runtime switches to
// the next group at every rotation point (typically each instrumented
// iteration), so over many iterations every group is exercised.
type Schedule struct {
	groups []Group
}

// DefaultGroups mirrors a typical 4-register PMU programming: every group
// carries Instructions and Cycles (so IPC/MIPS are always available and the
// extrapolation has a common basis) plus two rotating events. The energy
// counter is not a PMU register (it is an MSR the runtime reads alongside),
// so it is present in every group as well.
func DefaultGroups() []Group {
	return []Group{
		{Name: "cache", IDs: []ID{Instructions, Cycles, Energy, L1DMisses, L2Misses}},
		{Name: "memory", IDs: []ID{Instructions, Cycles, Energy, L3Misses, Loads}},
		{Name: "branch", IDs: []ID{Instructions, Cycles, Energy, Branches, BranchMisses}},
		{Name: "fp", IDs: []ID{Instructions, Cycles, Energy, FPOps, Stores}},
	}
}

// NativeGroup captures every counter at once. It models an idealized PMU and
// is the ground-truth reference the multiplexing experiment compares against.
func NativeGroup() []Group {
	return []Group{{Name: "native", IDs: AllIDs()}}
}

// NewSchedule builds a rotation over groups. It panics on an empty group
// list or a group without counters, which always indicates a configuration
// bug rather than a runtime condition.
func NewSchedule(groups []Group) *Schedule {
	if len(groups) == 0 {
		panic("counters: empty multiplex schedule")
	}
	for _, g := range groups {
		if len(g.IDs) == 0 {
			panic(fmt.Sprintf("counters: multiplex group %q has no counters", g.Name))
		}
		for _, id := range g.IDs {
			if !id.Valid() {
				panic(fmt.Sprintf("counters: multiplex group %q has invalid counter %d", g.Name, id))
			}
		}
	}
	cp := make([]Group, len(groups))
	copy(cp, groups)
	return &Schedule{groups: cp}
}

// Len returns the number of groups in the rotation.
func (s *Schedule) Len() int { return len(s.groups) }

// Group returns the group active at rotation index i (wrapping).
func (s *Schedule) Group(i int) Group {
	return s.groups[i%len(s.groups)]
}

// Covers reports whether the union of all groups captures counter id.
func (s *Schedule) Covers(id ID) bool {
	for _, g := range s.groups {
		for _, gid := range g.IDs {
			if gid == id {
				return true
			}
		}
	}
	return false
}

// Coverage returns the counters captured by at least one group.
func (s *Schedule) Coverage() []ID {
	var out []ID
	for _, id := range AllIDs() {
		if s.Covers(id) {
			out = append(out, id)
		}
	}
	return out
}

// Extrapolator reconstructs a complete counter delta for a region from
// observations taken under different multiplex groups, following the
// projection scheme of González et al. (ICPADS 2010): each observation of a
// counter is normalized by the instructions executed in its own interval,
// the per-instruction ratios are averaged across observations, and the full
// set is re-scaled to the region's total instruction count.
type Extrapolator struct {
	sumRatio [NumIDs]float64 // sum of counter-per-instruction ratios
	nObs     [NumIDs]int     // observations per counter
	totalIns float64         // total instructions accumulated across observations
	totalCyc float64
	obs      int
}

// Observe folds one interval observation into the extrapolator. delta is the
// counter delta of the interval; counters not captured by the active group
// must be missing. Intervals with no instruction count are ignored because
// the normalization basis is missing.
func (e *Extrapolator) Observe(delta Set) {
	ins, ok := delta.Get(Instructions)
	if !ok || ins <= 0 {
		return
	}
	e.obs++
	e.totalIns += float64(ins)
	if cyc, ok := delta.Get(Cycles); ok {
		e.totalCyc += float64(cyc)
	}
	for id := ID(0); id < NumIDs; id++ {
		v, ok := delta.Get(id)
		if !ok || id == Instructions {
			continue
		}
		e.sumRatio[id] += float64(v) / float64(ins)
		e.nObs[id]++
	}
}

// Observations returns how many intervals have been folded in.
func (e *Extrapolator) Observations() int { return e.obs }

// Project returns the extrapolated counter delta for a region that executed
// totalInstructions instructions. Counters never observed stay missing.
func (e *Extrapolator) Project(totalInstructions int64) Set {
	out := AllMissing()
	if totalInstructions < 0 {
		return out
	}
	out.Put(Instructions, totalInstructions)
	for id := ID(0); id < NumIDs; id++ {
		if id == Instructions || e.nObs[id] == 0 {
			continue
		}
		meanRatio := e.sumRatio[id] / float64(e.nObs[id])
		out.Put(id, int64(meanRatio*float64(totalInstructions)))
	}
	return out
}

// MeanRatio returns the average per-instruction ratio observed for counter
// id, and false when the counter was never observed.
func (e *Extrapolator) MeanRatio(id ID) (float64, bool) {
	if !id.Valid() || e.nObs[id] == 0 {
		return 0, false
	}
	return e.sumRatio[id] / float64(e.nObs[id]), true
}
