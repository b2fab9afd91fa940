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

// Attribute returns the dominant source construct of the normalized-time
// interval [x0, x1). ok is false when the interval contains no stack
// samples.
func Attribute(f *Folded, in *callstack.Interner, x0, x1 float64) (Attribution, bool) {
	lo := sort.Search(len(f.Stacks), func(i int) bool { return f.Stacks[i].X >= x0 })
	hi := sort.Search(len(f.Stacks), func(i int) bool { return f.Stacks[i].X >= x1 })
	if hi <= lo {
		return Attribution{}, false
	}
	routineCount := make(map[callstack.RoutineID]int)
	lineCount := make(map[callstack.RoutineID]map[int]int)
	total := 0
	for _, ss := range f.Stacks[lo:hi] {
		st, ok := in.Get(ss.Stack)
		if !ok {
			continue
		}
		leaf, ok := st.Leaf()
		if !ok {
			continue
		}
		total++
		routineCount[leaf.Routine]++
		lm := lineCount[leaf.Routine]
		if lm == nil {
			lm = make(map[int]int)
			lineCount[leaf.Routine] = lm
		}
		lm[leaf.Line]++
	}
	if total == 0 {
		return Attribution{}, false
	}
	best := callstack.NoRoutine
	bestN := -1
	for r, n := range routineCount {
		if n > bestN || (n == bestN && r < best) {
			best, bestN = r, n
		}
	}
	bestLine, bestLineN := 0, -1
	for ln, n := range lineCount[best] {
		if n > bestLineN || (n == bestLineN && ln < bestLine) {
			bestLine, bestLineN = ln, n
		}
	}
	return Attribution{
		Routine: best,
		Line:    bestLine,
		Share:   float64(bestN) / float64(total),
		Samples: total,
	}, true
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

// Profile returns the per-(routine, line) histogram of folded stack samples
// in [x0, x1), ordered by descending count (ties by routine then line).
func Profile(f *Folded, in *callstack.Interner, x0, x1 float64) []LineProfile {
	lo := sort.Search(len(f.Stacks), func(i int) bool { return f.Stacks[i].X >= x0 })
	hi := sort.Search(len(f.Stacks), func(i int) bool { return f.Stacks[i].X >= x1 })
	type key struct {
		r  callstack.RoutineID
		ln int
	}
	counts := make(map[key]int)
	total := 0
	for _, ss := range f.Stacks[lo:hi] {
		st, ok := in.Get(ss.Stack)
		if !ok {
			continue
		}
		leaf, ok := st.Leaf()
		if !ok {
			continue
		}
		counts[key{leaf.Routine, leaf.Line}]++
		total++
	}
	out := make([]LineProfile, 0, len(counts))
	for k, n := range counts {
		out = append(out, LineProfile{
			Routine: k.r,
			Line:    k.ln,
			Count:   n,
			Share:   float64(n) / float64(total),
		})
	}
	slices.SortFunc(out, func(a, b LineProfile) int {
		if c := cmp.Compare(b.Count, a.Count); c != 0 {
			return c
		}
		if c := cmp.Compare(a.Routine, b.Routine); c != 0 {
			return c
		}
		return cmp.Compare(a.Line, b.Line)
	})
	return out
}
