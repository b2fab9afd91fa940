package counters

import (
	"testing"
	"testing/quick"
)

func TestIDStringAndParseRoundtrip(t *testing.T) {
	for _, id := range AllIDs() {
		name := id.String()
		got, err := ParseID(name)
		if err != nil {
			t.Fatalf("ParseID(%q): %v", name, err)
		}
		if got != id {
			t.Fatalf("roundtrip %v -> %q -> %v", id, name, got)
		}
	}
}

func TestParseIDUnknown(t *testing.T) {
	if _, err := ParseID("PAPI_NOPE"); err == nil {
		t.Fatal("unknown counter name parsed without error")
	}
}

func TestInvalidIDString(t *testing.T) {
	bad := ID(200)
	if bad.Valid() {
		t.Fatal("ID 200 reported valid")
	}
	if bad.String() == "" {
		t.Fatal("invalid ID has empty String")
	}
}

func TestSetSubAdd(t *testing.T) {
	var a, b Set
	for i := ID(0); i < NumIDs; i++ {
		a.Put(i, int64(10*(i+1)))
		b.Put(i, int64(i+1))
	}
	d := a.Sub(b)
	for i := ID(0); i < NumIDs; i++ {
		if got, ok := d.Get(i); !ok || got != int64(9*(i+1)) {
			t.Fatalf("Sub[%d] = %d, %v, want %d", i, got, ok, 9*(i+1))
		}
	}
	s := d.Add(b)
	if s != a {
		t.Fatalf("Add did not invert Sub: %v vs %v", s, a)
	}
}

func TestMissingPropagation(t *testing.T) {
	var a, b Set
	a.Put(Instructions, 100)
	b.Drop(Instructions)
	diff, sum := a.Sub(b), b.Add(a)
	if _, ok := diff.Get(Instructions); ok {
		t.Fatal("Sub with Missing operand did not propagate Missing")
	}
	if _, ok := sum.Get(Instructions); ok {
		t.Fatal("Add with Missing operand did not propagate Missing")
	}
}

func TestSetGet(t *testing.T) {
	s := AllMissing()
	if _, ok := s.Get(Instructions); ok {
		t.Fatal("Get on Missing returned ok")
	}
	s.Put(Instructions, 42)
	v, ok := s.Get(Instructions)
	if !ok || v != 42 {
		t.Fatalf("Get = (%d, %v), want (42, true)", v, ok)
	}
	if _, ok := s.Get(ID(250)); ok {
		t.Fatal("Get on invalid ID returned ok")
	}
}

func TestComplete(t *testing.T) {
	var s Set
	if !s.Complete() {
		t.Fatal("zero set should be complete (zeros are valid values)")
	}
	s.Drop(L3Misses)
	if s.Complete() {
		t.Fatal("set with Missing reported complete")
	}
}

func TestMaskedTo(t *testing.T) {
	var s Set
	for i := ID(0); i < NumIDs; i++ {
		s.Put(i, int64(i+1))
	}
	m := s.MaskedTo([]ID{Instructions, Cycles})
	for _, id := range AllIDs() {
		v, ok := m.Get(id)
		switch id {
		case Instructions, Cycles:
			if !ok || v != int64(id)+1 {
				t.Fatalf("masked counter %v = (%d,%v)", id, v, ok)
			}
		default:
			if ok {
				t.Fatalf("counter %v should be Missing after mask", id)
			}
		}
	}
}

func TestMaskedToIgnoresInvalid(t *testing.T) {
	var s Set
	m := s.MaskedTo([]ID{ID(99)})
	if m != AllMissing() {
		t.Fatal("invalid mask entry leaked a value")
	}
}

func TestSubAddProperty(t *testing.T) {
	check := func(av, bv [NumIDs]int16) bool {
		var a, b Set
		for i := ID(0); i < NumIDs; i++ {
			a.Put(i, int64(av[i]))
			b.Put(i, int64(bv[i]))
		}
		// (a+b)-b == a for sets without Missing.
		return a.Add(b).Sub(b) == a
	}
	if err := quick.Check(check, nil); err != nil {
		t.Fatal(err)
	}
}
