package trace

import (
	"testing"

	"phasefold/internal/counters"
	"phasefold/internal/sim"
)

// script builds a single-rank event stream from (time, type, value) triples
// with a linear instruction counter (1 instruction per ns).
func script(t *testing.T, steps ...[3]int64) *Trace {
	t.Helper()
	tr := New("script", 1, nil, nil)
	for _, s := range steps {
		tr.AddEvent(Event{
			Time:     sim.Time(s[0]),
			Type:     EventType(s[1]),
			Value:    s[2],
			Counters: ctrAt(s[0]),
		})
	}
	if err := tr.Validate(); err != nil {
		t.Fatalf("script trace invalid: %v", err)
	}
	return tr
}

func ev(at int64, typ EventType, val int64) [3]int64 { return [3]int64{at, int64(typ), val} }

func TestExtractSimpleRegionBurst(t *testing.T) {
	tr := script(t,
		ev(0, IterBegin, 0),
		ev(10, RegionEnter, 7),
		ev(110, RegionExit, 7),
		ev(200, IterEnd, 0),
	)
	bursts, err := ExtractBursts(tr, BurstOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// Three bursts: [0,10) outside region, [10,110) region 7, [110,200) after.
	if len(bursts) != 3 {
		t.Fatalf("got %d bursts, want 3: %+v", len(bursts), bursts)
	}
	b := bursts[1]
	if b.Region != 7 || b.Start != 10 || b.End != 110 || b.Iter != 0 {
		t.Fatalf("region burst = %+v", b)
	}
	if ins, ok := b.Delta.Get(counters.Instructions); !ok || ins != 100 {
		t.Fatalf("region burst instructions = %d", ins)
	}
	if v, ok := b.StartCtr.Get(counters.Instructions); !ok || v != 10 {
		t.Fatalf("region burst start counter = %d", v)
	}
}

func TestExtractRequireRegion(t *testing.T) {
	tr := script(t,
		ev(0, IterBegin, 0),
		ev(10, RegionEnter, 7),
		ev(110, RegionExit, 7),
		ev(200, IterEnd, 0),
	)
	bursts, err := ExtractBursts(tr, BurstOptions{RequireRegion: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(bursts) != 1 || bursts[0].Region != 7 {
		t.Fatalf("RequireRegion kept %+v", bursts)
	}
}

func TestExtractCommSplitsBursts(t *testing.T) {
	tr := script(t,
		ev(0, IterBegin, 0),
		ev(100, CommEnter, 3),
		ev(150, CommExit, 3),
		ev(300, IterEnd, 0),
	)
	bursts, err := ExtractBursts(tr, BurstOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(bursts) != 2 {
		t.Fatalf("got %d bursts, want 2", len(bursts))
	}
	if bursts[0].Start != 0 || bursts[0].End != 100 {
		t.Fatalf("pre-comm burst = %+v", bursts[0])
	}
	if bursts[1].Start != 150 || bursts[1].End != 300 {
		t.Fatalf("post-comm burst = %+v", bursts[1])
	}
}

func TestExtractNestedCommOnlyOuterDelimits(t *testing.T) {
	tr := script(t,
		ev(0, IterBegin, 0),
		ev(50, CommEnter, -1),
		ev(60, CommEnter, -1), // nested (e.g. collective implemented over p2p)
		ev(70, CommExit, -1),
		ev(90, CommExit, -1),
		ev(200, IterEnd, 0),
	)
	bursts, err := ExtractBursts(tr, BurstOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(bursts) != 2 {
		t.Fatalf("got %d bursts, want 2 (nested comm must not open a burst)", len(bursts))
	}
	if bursts[1].Start != 90 {
		t.Fatalf("burst after nested comm starts at %d, want 90", bursts[1].Start)
	}
}

func TestExtractRegionInsideCommIgnored(t *testing.T) {
	// Region markers fired while inside communication (progress callbacks)
	// must not create bursts.
	tr := script(t,
		ev(0, IterBegin, 0),
		ev(10, CommEnter, -1),
		ev(20, RegionEnter, 9),
		ev(30, RegionExit, 9),
		ev(40, CommExit, -1),
		ev(100, IterEnd, 0),
	)
	bursts, err := ExtractBursts(tr, BurstOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range bursts {
		if b.Region == 9 {
			t.Fatalf("burst created for region inside comm: %+v", b)
		}
	}
}

func TestExtractMinDuration(t *testing.T) {
	tr := script(t,
		ev(0, IterBegin, 0),
		ev(5, CommEnter, -1), // 5 ns sliver
		ev(10, CommExit, -1),
		ev(1000, IterEnd, 0),
	)
	bursts, err := ExtractBursts(tr, BurstOptions{MinDuration: 50})
	if err != nil {
		t.Fatal(err)
	}
	if len(bursts) != 1 {
		t.Fatalf("got %d bursts, want 1 (sliver dropped)", len(bursts))
	}
	if bursts[0].Duration() != 990 {
		t.Fatalf("kept burst duration %d", bursts[0].Duration())
	}
}

func TestExtractIterationNumbers(t *testing.T) {
	tr := script(t,
		ev(0, IterBegin, 0),
		ev(100, IterEnd, 0),
		ev(110, IterBegin, 1),
		ev(210, IterEnd, 1),
	)
	bursts, err := ExtractBursts(tr, BurstOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(bursts) != 2 || bursts[0].Iter != 0 || bursts[1].Iter != 1 {
		t.Fatalf("iteration numbers wrong: %+v", bursts)
	}
}

func TestExtractMismatchedRegionExit(t *testing.T) {
	tr := New("bad", 1, nil, nil)
	tr.AddEvent(Event{Time: 1, Type: RegionEnter, Value: 1, Counters: counters.AllMissing()})
	tr.AddEvent(Event{Time: 2, Type: RegionExit, Value: 2, Counters: counters.AllMissing()})
	if _, err := ExtractBursts(tr, BurstOptions{}); err == nil {
		t.Fatal("mismatched region exit not rejected")
	}
}

func TestExtractAttachesSamples(t *testing.T) {
	tr := script(t,
		ev(0, IterBegin, 0),
		ev(10, RegionEnter, 1),
		ev(110, RegionExit, 1),
		ev(120, IterEnd, 0),
	)
	for _, at := range []sim.Time{5, 20, 60, 115} {
		tr.AddSample(Sample{Time: at, Counters: ctrAt(int64(at)), Stack: -1})
	}
	bursts, err := ExtractBursts(tr, BurstOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var region *Burst
	for i := range bursts {
		if bursts[i].Region == 1 {
			region = &bursts[i]
		}
	}
	if region == nil {
		t.Fatal("region burst missing")
	}
	if region.FirstSmp != 1 || region.NumSmp != 2 {
		t.Fatalf("sample attachment = (%d, %d), want (1, 2)", region.FirstSmp, region.NumSmp)
	}
}

func TestSortBursts(t *testing.T) {
	bursts := []Burst{
		{Rank: 1, Start: 5},
		{Rank: 0, Start: 9},
		{Rank: 0, Start: 2},
	}
	SortBursts(bursts)
	if bursts[0].Rank != 0 || bursts[0].Start != 2 || bursts[2].Rank != 1 {
		t.Fatalf("SortBursts order wrong: %+v", bursts)
	}
}

func TestTotalComputation(t *testing.T) {
	bursts := []Burst{
		{Region: 1, Start: 0, End: 10},
		{Region: 2, Start: 0, End: 5},
		{Region: 1, Start: 20, End: 40},
	}
	if got := TotalComputation(bursts); got != 35 {
		t.Fatalf("TotalComputation = %d, want 35", got)
	}
}

func TestBurstContains(t *testing.T) {
	b := Burst{Start: 10, End: 20}
	if !b.Contains(10) || b.Contains(20) || b.Contains(9) {
		t.Fatal("Contains boundary semantics wrong (inclusive start, exclusive end)")
	}
}
