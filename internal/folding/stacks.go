package folding

import (
	"cmp"
	"slices"
	"sort"

	"phasefold/internal/callstack"
)

// Attribution maps a normalized-time interval of the synthetic burst to the
// source construct that dominates it, derived from the folded call-stack
// samples — the paper's "correlation between performance and source code".
type Attribution struct {
	// Routine is the dominant leaf routine in the interval.
	Routine callstack.RoutineID
	// Line is the most frequent leaf source line within that routine.
	Line int
	// Share is the fraction of the interval's stack samples whose leaf is
	// the dominant routine; low shares flag intervals mixing several
	// constructs (a hint the phase boundary is misplaced).
	Share float64
	// Samples is the number of folded stack samples in the interval.
	Samples int
}

// LineProfile is the folded per-line sample histogram of an interval,
// ordered by descending sample count: the "zoomed-in profile" the analysis
// reports attach to each phase.
type LineProfile struct {
	Routine callstack.RoutineID
	Line    int
	Count   int
	Share   float64
}

// Attribute returns the dominant source construct of the normalized-time
// interval [x0, x1). ok is false when the interval contains no stack
// samples.
func Attribute(f *Folded, in *callstack.Interner, x0, x1 float64) (Attribution, bool) {
	a := NewAttributor(in)
	total := a.count(f, x0, x1)
	if total == 0 {
		return Attribution{}, false
	}
	return a.attribution(total), true
}

// Profile returns the per-(routine, line) histogram of folded stack samples
// in [x0, x1), ordered by descending count (ties by routine then line).
func Profile(f *Folded, in *callstack.Interner, x0, x1 float64) []LineProfile {
	a := NewAttributor(in)
	return a.profile(a.count(f, x0, x1))
}

// Attributor computes an interval's Attribution and LineProfile in one pass
// over its folded stack samples. It counts the samples per stack identifier,
// then resolves each distinct stack's leaf once, so a sample costs one
// counter increment. Its buffers are reused from one interval to the next;
// an Attributor is not safe for concurrent use.
type Attributor struct {
	in     *callstack.Interner
	counts []int32             // samples per stack id; all zero between calls
	ids    []callstack.StackID // the ids with a non-zero count
	lines  []LineProfile       // per-leaf counts, in (routine, line) order
}

// NewAttributor returns an Attributor resolving stacks through in.
func NewAttributor(in *callstack.Interner) *Attributor {
	return &Attributor{in: in}
}

// Interval returns what Attribute and Profile return for [x0, x1) of f.
func (a *Attributor) Interval(f *Folded, x0, x1 float64) (attr Attribution, prof []LineProfile, ok bool) {
	total := a.count(f, x0, x1)
	prof = a.profile(total)
	if total == 0 {
		return Attribution{}, prof, false
	}
	return a.attribution(total), prof, true
}

// count tallies the stack samples of [x0, x1) of f by leaf into a.lines and
// returns their number. A sample whose stack does not resolve, or resolves
// to an empty stack, is not counted.
func (a *Attributor) count(f *Folded, x0, x1 float64) (total int) {
	if n := a.in.Len(); len(a.counts) != n {
		a.counts = make([]int32, n)
	}
	lo := sort.Search(len(f.Stacks), func(i int) bool { return f.Stacks[i].X >= x0 })
	hi := sort.Search(len(f.Stacks), func(i int) bool { return f.Stacks[i].X >= x1 })
	a.ids = a.ids[:0]
	for _, ss := range f.Stacks[lo:max(lo, hi)] {
		if id := ss.Stack; id >= 0 && int(id) < len(a.counts) {
			if a.counts[id] == 0 {
				a.ids = append(a.ids, id)
			}
			a.counts[id]++
		}
	}
	lines := a.lines[:0]
	for _, id := range a.ids {
		st, _ := a.in.Get(id)
		if leaf, ok := st.Leaf(); ok {
			lines = append(lines, LineProfile{Routine: leaf.Routine, Line: leaf.Line, Count: int(a.counts[id])})
			total += int(a.counts[id])
		}
		a.counts[id] = 0
	}
	// Merge the stacks that share a leaf: in (routine, line) order, equal
	// leaves are adjacent.
	slices.SortFunc(lines, cmpLeaf)
	if len(lines) > 0 {
		merged := lines[:1]
		for _, l := range lines[1:] {
			if last := &merged[len(merged)-1]; cmpLeaf(*last, l) == 0 {
				last.Count += l.Count
			} else {
				merged = append(merged, l)
			}
		}
		lines = merged
	}
	a.lines = lines
	return total
}

// attribution derives the Attribution of the last count, total > 0. The
// dominant routine has the most samples, summed over its lines (ties: the
// lower routine); its line is its most frequent one (ties: the lower line).
// a.lines is in (routine, line) order, so a strict comparison keeps the
// lower of two ties.
func (a *Attributor) attribution(total int) Attribution {
	var attr Attribution
	bestN, routineN := -1, 0
	for i, l := range a.lines {
		routineN += l.Count
		if i+1 < len(a.lines) && a.lines[i+1].Routine == l.Routine {
			continue
		}
		if routineN > bestN {
			attr.Routine, bestN = l.Routine, routineN
		}
		routineN = 0
	}
	bestLineN := -1
	for _, l := range a.lines {
		if l.Routine == attr.Routine && l.Count > bestLineN {
			attr.Line, bestLineN = l.Line, l.Count
		}
	}
	attr.Share = float64(bestN) / float64(total)
	attr.Samples = total
	return attr
}

// profile returns the LineProfile of the last count, which counted total
// samples, in a new slice.
func (a *Attributor) profile(total int) []LineProfile {
	prof := make([]LineProfile, len(a.lines))
	for i, l := range a.lines {
		l.Share = float64(l.Count) / float64(total)
		prof[i] = l
	}
	slices.SortFunc(prof, func(a, b LineProfile) int {
		if c := cmp.Compare(b.Count, a.Count); c != 0 {
			return c
		}
		return cmpLeaf(a, b)
	})
	return prof
}

// cmpLeaf orders line profiles by routine, then line.
func cmpLeaf(a, b LineProfile) int {
	if c := cmp.Compare(a.Routine, b.Routine); c != 0 {
		return c
	}
	return cmp.Compare(a.Line, b.Line)
}
