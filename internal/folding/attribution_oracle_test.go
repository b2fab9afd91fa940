package folding

import (
	"cmp"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"

	"phasefold/internal/callstack"
)

// oracleAttribute and oracleProfile are Attribute and Profile as they were
// before the shared counting pass: each binary-searches the interval and
// hashes every sample's leaf into maps.

func oracleAttribute(f *Folded, in *callstack.Interner, x0, x1 float64) (Attribution, bool) {
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

func oracleProfile(f *Folded, in *callstack.Interner, x0, x1 float64) []LineProfile {
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

// timelineFromBytes decodes a fuzz input into an interner and a folded stack
// timeline. The first byte sets the number of stacks; each stack takes a
// depth byte (depth 0 is an empty stack) and one byte per frame, whose few
// routines and lines make distinct stacks share leaves and counts tie. Every
// later byte pair is one sample: its X in 1/16 steps (so samples share X),
// and its stack, drawn from NoStack, the interned ids and two ids past
// Len().
func timelineFromBytes(data []byte) (*Folded, *callstack.Interner) {
	next := func() byte {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return b
	}
	in := callstack.NewInterner()
	for n := int(next() % 12); n > 0; n-- {
		var st callstack.Stack
		for d := int(next() % 4); d > 0; d-- {
			b := next()
			st = append(st, callstack.Frame{Routine: callstack.RoutineID(b%5) - 1, Line: int(b / 5 % 4)})
		}
		in.Intern(st)
	}
	f := &Folded{}
	ids := in.Len() + 3
	for len(data) >= 2 {
		x, s := next(), next()
		f.Stacks = append(f.Stacks, StackSample{X: float64(x%17) / 16, Stack: callstack.StackID(int(s)%ids - 1)})
	}
	sort.SliceStable(f.Stacks, func(i, j int) bool { return f.Stacks[i].X < f.Stacks[j].X })
	return f, in
}

// checkAttribution requires Attribute, Profile and one reused Attributor to
// return exactly what the map-based oracle returns, on every interval of a
// small grid over [0, 1] and beyond.
func checkAttribution(t *testing.T, f *Folded, in *callstack.Interner) {
	t.Helper()
	a := NewAttributor(in)
	grid := []float64{-0.5, 0, 0.0625, 0.25, 0.5, 0.75, 0.9375, 1, 1.5}
	for i, x0 := range grid {
		for _, x1 := range grid[i:] {
			wantAttr, wantOK := oracleAttribute(f, in, x0, x1)
			wantProf := oracleProfile(f, in, x0, x1)
			if attr, ok := Attribute(f, in, x0, x1); attr != wantAttr || ok != wantOK {
				t.Fatalf("Attribute[%g, %g) = %+v %v, oracle %+v %v", x0, x1, attr, ok, wantAttr, wantOK)
			}
			if prof := Profile(f, in, x0, x1); !reflect.DeepEqual(prof, wantProf) {
				t.Fatalf("Profile[%g, %g) = %+v, oracle %+v", x0, x1, prof, wantProf)
			}
			attr, prof, ok := a.Interval(f, x0, x1)
			if attr != wantAttr || ok != wantOK || !reflect.DeepEqual(prof, wantProf) {
				t.Fatalf("Interval[%g, %g) = %+v %+v %v, oracle %+v %+v %v", x0, x1, attr, prof, ok, wantAttr, wantProf, wantOK)
			}
		}
	}
}

func TestAttributionMatchesOracle(t *testing.T) {
	r := rand.New(rand.NewSource(28))
	for trial := 0; trial < 500; trial++ {
		data := make([]byte, r.Intn(400))
		r.Read(data)
		f, in := timelineFromBytes(data)
		checkAttribution(t, f, in)
	}
}

// FuzzAttribution checks the one-pass attribution against the map-based
// oracle on generated stack timelines: unresolvable and empty stacks, and
// ties between routines and between lines.
func FuzzAttribution(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{3, 1, 7, 2, 7, 8, 0, 0, 1, 4, 1, 9, 2, 12, 3, 15, 4, 6, 0})
	f.Add([]byte("routines and lines tie: the lower one wins, on every interval"))
	f.Fuzz(func(t *testing.T, data []byte) {
		fd, in := timelineFromBytes(data)
		checkAttribution(t, fd, in)
	})
}
