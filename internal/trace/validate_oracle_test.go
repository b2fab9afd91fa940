package trace_test

import (
	"fmt"
	"testing"

	"phasefold/internal/callstack"
	"phasefold/internal/core"
	"phasefold/internal/counters"
	"phasefold/internal/faults"
	"phasefold/internal/sim"
	"phasefold/internal/simapp"
	"phasefold/internal/trace"
)

// oracleValidateRank is the whole-rank validator the incremental
// RankValidator replaced, kept verbatim apart from reading counters through
// Set.Get: all event checks, then nesting, then all sample checks, then
// counter monotonicity over the merged event+sample timeline.
func oracleValidateRank(t *trace.Trace, r int) error {
	if r < 0 || r >= len(t.Ranks) {
		return fmt.Errorf("%w: rank %d out of range [0,%d)", trace.ErrInvalid, r, len(t.Ranks))
	}
	rd := t.Ranks[r]
	if rd == nil {
		return fmt.Errorf("%w: rank %d missing", trace.ErrInvalid, r)
	}
	if int(rd.Rank) != r {
		return fmt.Errorf("%w: rank slot %d holds rank %d", trace.ErrInvalid, r, rd.Rank)
	}
	var prev sim.Time
	depthRegion, depthComm := 0, 0
	for i, e := range rd.Events {
		if e.Time < prev {
			return fmt.Errorf("%w: rank %d event %d out of order (%d after %d)", trace.ErrInvalid, r, i, e.Time, prev)
		}
		prev = e.Time
		if int(e.Rank) != r {
			return fmt.Errorf("%w: rank %d event %d carries rank %d", trace.ErrInvalid, r, i, e.Rank)
		}
		if !e.Type.Valid() {
			return fmt.Errorf("%w: rank %d event %d has invalid type %d", trace.ErrInvalid, r, i, e.Type)
		}
		switch e.Type {
		case trace.RegionEnter:
			depthRegion++
		case trace.RegionExit:
			depthRegion--
			if depthRegion < 0 {
				return fmt.Errorf("%w: rank %d event %d: region exit without enter", trace.ErrInvalid, r, i)
			}
		case trace.CommEnter:
			depthComm++
		case trace.CommExit:
			depthComm--
			if depthComm < 0 {
				return fmt.Errorf("%w: rank %d event %d: comm exit without enter", trace.ErrInvalid, r, i)
			}
		}
	}
	if depthRegion != 0 {
		return fmt.Errorf("%w: rank %d has %d unclosed regions", trace.ErrInvalid, r, depthRegion)
	}
	if depthComm != 0 {
		return fmt.Errorf("%w: rank %d has %d unclosed comms", trace.ErrInvalid, r, depthComm)
	}
	prev = 0
	for i, s := range rd.Samples {
		if s.Time < prev {
			return fmt.Errorf("%w: rank %d sample %d out of order", trace.ErrInvalid, r, i)
		}
		prev = s.Time
		if int(s.Rank) != r {
			return fmt.Errorf("%w: rank %d sample %d carries rank %d", trace.ErrInvalid, r, i, s.Rank)
		}
		if s.Stack != callstack.NoStack {
			if _, ok := t.Stacks.Get(s.Stack); !ok {
				return fmt.Errorf("%w: rank %d sample %d references unknown stack %d", trace.ErrInvalid, r, i, s.Stack)
			}
		}
	}
	return oracleCounterMonotone(rd, r)
}

func oracleCounterMonotone(rd *trace.RankData, r int) error {
	var last [counters.NumIDs]int64
	var seen [counters.NumIDs]bool
	check := func(what string, i int, s *counters.Set) error {
		for c := counters.ID(0); c < counters.NumIDs; c++ {
			v, ok := s.Get(c)
			if !ok {
				continue
			}
			if v < 0 {
				return fmt.Errorf("%w: rank %d %s %d: counter %d negative (%d)", trace.ErrInvalid, r, what, i, c, v)
			}
			if seen[c] && v < last[c] {
				return fmt.Errorf("%w: rank %d %s %d: counter %d regresses (%d after %d)", trace.ErrInvalid, r, what, i, c, v, last[c])
			}
			last[c] = v
			seen[c] = true
		}
		return nil
	}
	ei, si := 0, 0
	for ei < len(rd.Events) || si < len(rd.Samples) {
		haveE, haveS := ei < len(rd.Events), si < len(rd.Samples)
		if haveE && (!haveS || rd.Events[ei].Time <= rd.Samples[si].Time) {
			if err := check("event", ei, &rd.Events[ei].Counters); err != nil {
				return err
			}
			ei++
		} else {
			if err := check("sample", si, &rd.Samples[si].Counters); err != nil {
				return err
			}
			si++
		}
	}
	return nil
}

// mustMatchOracle compares ValidateRank with the oracle on every rank slot
// of tr (and one past each end), error text included.
func mustMatchOracle(t *testing.T, name string, tr *trace.Trace) (invalid int) {
	t.Helper()
	for r := -1; r <= len(tr.Ranks); r++ {
		got, want := tr.ValidateRank(r), oracleValidateRank(tr, r)
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("%s rank %d: ValidateRank = %v, oracle = %v", name, r, got, want)
		}
		if got != nil && r >= 0 && r < len(tr.Ranks) {
			invalid++
		}
	}
	return invalid
}

// TestValidateRankMatchesOracle runs both validators over simulated traces,
// pristine and under every trace-level fault class, before and after
// Sanitize.
func TestValidateRankMatchesOracle(t *testing.T) {
	classes := []string{"drop=0.1", "dup=0.1", "garble=0.05", "killrank=0.3", "reorder=0.1",
		"skew=10ms", "truncate=0.3", "wrap=24", "zero=0.05"}
	var base []*trace.Trace
	for _, app := range []string{"multiphase", "cg"} {
		a, err := simapp.NewApp(app)
		if err != nil {
			t.Fatal(err)
		}
		run, err := core.RunApp(a, simapp.Config{Ranks: 4, Iterations: 40, Seed: 5, FreqGHz: 2}, core.DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		base = append(base, run.Trace)
	}
	base = append(base, goldenTrace(t, 42))
	damaged := 0
	for bi, tr := range base {
		mustMatchOracle(t, fmt.Sprintf("trace%d/pristine", bi), tr)
		for _, spec := range classes {
			for seed := uint64(1); seed <= 3; seed++ {
				c, err := faults.Parse(spec, seed)
				if err != nil {
					t.Fatal(err)
				}
				work := tr.Clone()
				c.ApplyTrace(work)
				name := fmt.Sprintf("trace%d/%s/seed%d", bi, spec, seed)
				damaged += mustMatchOracle(t, name, work)
				work.Sanitize()
				mustMatchOracle(t, name+"/sanitized", work)
			}
		}
	}
	if damaged == 0 {
		t.Fatal("no fault class produced an invalid rank; the comparison proves nothing")
	}
}

// TestValidateRankMergedTimeline pins the cases only the merged check sees,
// and the order in which ValidateRank reports concurrent faults.
func TestValidateRankMergedTimeline(t *testing.T) {
	ctr := func(v int64) counters.Set {
		s := counters.AllMissing()
		s.Put(counters.Instructions, v)
		return s
	}
	build := func(mut func(rd *trace.RankData)) *trace.Trace {
		tr := trace.New("merged", 1, nil, nil)
		rd := tr.Ranks[0]
		rd.Events = []trace.Event{
			{Time: 10, Type: trace.RegionEnter, Counters: ctr(100)},
			{Time: 20, Type: trace.RegionExit, Counters: ctr(200)},
			{Time: 30, Type: trace.RegionEnter, Counters: ctr(300)},
			{Time: 40, Type: trace.RegionExit, Counters: ctr(400)},
		}
		rd.Samples = []trace.Sample{
			{Time: 15, Counters: ctr(150), Stack: callstack.NoStack},
			{Time: 25, Counters: ctr(250), Stack: callstack.NoStack},
			{Time: 35, Counters: ctr(350), Stack: callstack.NoStack},
		}
		mut(rd)
		return tr
	}
	cases := map[string]func(rd *trace.RankData){
		"valid": func(*trace.RankData) {},
		// Below the preceding event, above the previous sample.
		"sample-below-event": func(rd *trace.RankData) { rd.Samples[1].Counters = ctr(199) },
		// Above the following event.
		"sample-above-event": func(rd *trace.RankData) { rd.Samples[1].Counters = ctr(301) },
		"event-tie-first":    func(rd *trace.RankData) { rd.Samples[1].Time = 20; rd.Samples[1].Counters = ctr(199) },
		"negative-sample":    func(rd *trace.RankData) { rd.Samples[2].Counters = ctr(-5) },
		"negative-event":     func(rd *trace.RankData) { rd.Events[3].Counters = ctr(-1) },
		"mono-then-stack": func(rd *trace.RankData) {
			rd.Samples[0].Counters = ctr(1)
			rd.Samples[2].Stack = 7
		},
		"stack-then-nesting": func(rd *trace.RankData) {
			rd.Samples[0].Stack = 7
			rd.Events = rd.Events[:3]
		},
		"event-after-mono": func(rd *trace.RankData) {
			rd.Samples[0].Counters = ctr(1)
			rd.Events[3].Rank = 3
		},
		"uncaptured": func(rd *trace.RankData) {
			rd.Samples[1].Counters = counters.AllMissing()
			rd.Events[2].Counters = counters.AllMissing()
		},
	}
	for name, mut := range cases {
		mustMatchOracle(t, name, build(mut))
	}
}

// TestRankValidatorChunked feeds a rank in runs, events of a stretch before
// its samples, and checks the verdict matches the whole-rank one.
func TestRankValidatorChunked(t *testing.T) {
	tr := goldenTrace(t, 7)
	for _, spec := range []string{"", "wrap=24", "zero=0.05", "garble=0.05"} {
		work := tr.Clone()
		if spec != "" {
			c, err := faults.Parse(spec, 3)
			if err != nil {
				t.Fatal(err)
			}
			c.ApplyTrace(work)
		}
		for r, rd := range work.Ranks {
			want := work.ValidateRank(r)
			for _, step := range []int{1, 3, 64} {
				v := trace.NewRankValidator(r, work.Stacks)
				for lo := 0; lo < len(rd.Events); lo += step {
					v.Events(rd.Events[lo:min(lo+step, len(rd.Events))])
				}
				for lo := 0; lo < len(rd.Samples); lo += step {
					v.Samples(rd.Samples[lo:min(lo+step, len(rd.Samples))])
				}
				if got := v.Finish(); fmt.Sprint(got) != fmt.Sprint(want) {
					t.Fatalf("%q rank %d step %d: chunked %v, whole %v", spec, r, step, got, want)
				}
			}
		}
	}
}

// FuzzValidateRank holds ValidateRank to the oracle on arbitrary one-rank
// record streams decoded from the fuzz input.
func FuzzValidateRank(f *testing.F) {
	f.Add([]byte{0, 10, 1, 5, 3, 20, 2, 9, 1, 15, 0, 7, 5, 30, 1, 12})
	f.Add([]byte{4, 4, 4, 4, 0, 0, 0, 0, 2, 2, 2, 2, 1, 1, 1, 1, 255, 0, 3, 3})
	f.Add([]byte("the merged timeline, in bytes"))
	f.Fuzz(func(t *testing.T, data []byte) {
		syms := callstack.NewSymbolTable()
		rt := syms.Define(callstack.Routine{Name: "f", File: "f.c"})
		tr := trace.New("fuzz", 1, syms, callstack.NewInterner())
		tr.Stacks.Intern(callstack.Stack{{Routine: rt, Line: 1}})
		rd := tr.Ranks[0]
		var now sim.Time
		for len(data) >= 4 {
			op, dt, val, aux := data[0], data[1], data[2], data[3]
			data = data[4:]
			now += sim.Time(int8(dt))
			set := counters.AllMissing()
			if aux&1 != 0 {
				set.Put(counters.Instructions, int64(int8(val))*int64(now))
			}
			if aux&2 != 0 {
				set.Put(counters.Cycles, int64(val))
			}
			rank := int32(0)
			if aux&0x80 != 0 {
				rank = 1
			}
			if op&1 == 0 {
				rd.Events = append(rd.Events, trace.Event{Time: now, Rank: rank, Type: trace.EventType(op >> 1 % 8), Counters: set})
			} else {
				rd.Samples = append(rd.Samples, trace.Sample{Time: now, Rank: rank, Counters: set, Stack: callstack.StackID(int8(aux) >> 2 % 3)})
			}
		}
		if got, want := tr.ValidateRank(0), oracleValidateRank(tr, 0); fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("ValidateRank = %v, oracle = %v", got, want)
		}
	})
}
