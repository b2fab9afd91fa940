package callstack

import (
	"testing"
	"testing/quick"
)

func TestInternDeduplicates(t *testing.T) {
	in := NewInterner()
	s1 := Stack{{Routine: 0, Line: 10}, {Routine: 1, Line: 20}}
	s2 := Stack{{Routine: 0, Line: 10}, {Routine: 1, Line: 20}}
	s3 := Stack{{Routine: 0, Line: 10}, {Routine: 1, Line: 21}}
	a := in.Intern(s1)
	b := in.Intern(s2)
	c := in.Intern(s3)
	if a != b {
		t.Fatalf("identical stacks interned to %d and %d", a, b)
	}
	if a == c {
		t.Fatal("different stacks interned to the same id")
	}
	if in.Len() != 2 {
		t.Fatalf("Len = %d, want 2", in.Len())
	}
}

func TestInternCopies(t *testing.T) {
	in := NewInterner()
	s := Stack{{Routine: 3, Line: 7}}
	id := in.Intern(s)
	s[0].Line = 99 // mutate the caller's slice
	got, ok := in.Get(id)
	if !ok || got[0].Line != 7 {
		t.Fatal("interner shares storage with caller")
	}
}

func TestInternEmptyStack(t *testing.T) {
	in := NewInterner()
	id := in.Intern(Stack{})
	got, ok := in.Get(id)
	if !ok || len(got) != 0 {
		t.Fatalf("empty stack roundtrip = (%v, %v)", got, ok)
	}
	if id2 := in.Intern(Stack{}); id2 != id {
		t.Fatal("empty stack interned twice")
	}
}

func TestGetOutOfRange(t *testing.T) {
	in := NewInterner()
	if _, ok := in.Get(NoStack); ok {
		t.Fatal("Get(NoStack) returned ok")
	}
	if _, ok := in.Get(7); ok {
		t.Fatal("Get past end returned ok")
	}
}

func TestInternRoundtripProperty(t *testing.T) {
	in := NewInterner()
	check := func(routines []int16, lines []uint8) bool {
		n := len(routines)
		if len(lines) < n {
			n = len(lines)
		}
		s := make(Stack, n)
		for i := 0; i < n; i++ {
			s[i] = Frame{Routine: RoutineID(routines[i]), Line: int(lines[i])}
		}
		id := in.Intern(s)
		got, ok := in.Get(id)
		return ok && got.Equal(s) && in.Intern(s) == id
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestAllOrder(t *testing.T) {
	in := NewInterner()
	a := in.Intern(Stack{{Routine: 1, Line: 1}})
	b := in.Intern(Stack{{Routine: 2, Line: 2}})
	all := in.All()
	if len(all) != 2 {
		t.Fatalf("All len = %d", len(all))
	}
	if !all[a].Equal(Stack{{Routine: 1, Line: 1}}) || !all[b].Equal(Stack{{Routine: 2, Line: 2}}) {
		t.Fatal("All order does not match ids")
	}
}

// TestInternCraftedStacksSpread interns stacks crafted to collide if hash
// started from a fixed state: a one-frame stack would hash to
// mix(mix(1^Routine)^Line), and Line = K ^ mix(1^Routine) sends every
// routine to K. Stack tables come from untrusted input, and Intern scans a
// bucket linearly, so a shared bucket would make interning them quadratic;
// under the seeded hash each lands in a bucket of its own.
func TestInternCraftedStacksSpread(t *testing.T) {
	const n, k = 20000, 0x5eed
	in := NewInterner()
	for r := 0; r < n; r++ {
		line := k ^ mix(1^uint64(uint32(r)))
		if id := in.Intern(Stack{{Routine: RoutineID(r), Line: int(line)}}); int(id) != r {
			t.Fatalf("stack %d interned as %d", r, id)
		}
	}
	worst := 0
	for _, ids := range in.index {
		worst = max(worst, len(ids))
	}
	if len(in.index) != n || worst != 1 {
		t.Fatalf("%d crafted stacks share %d buckets (largest holds %d)", n, len(in.index), worst)
	}
}
