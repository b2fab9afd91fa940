package trace_test

import (
	"bytes"
	"context"
	"fmt"
	"reflect"
	"sort"
	"testing"

	"phasefold/internal/callstack"
	"phasefold/internal/core"
	"phasefold/internal/counters"
	"phasefold/internal/faults"
	"phasefold/internal/sim"
	"phasefold/internal/simapp"
	"phasefold/internal/trace"
)

// oracleSanitize is the Sanitize the per-rank early-outs replaced, kept
// verbatim apart from package qualifiers: every repair pass runs over every
// rank, and the counter repair always builds the merged timeline and its
// longest non-decreasing subsequences.
func oracleSanitize(t *trace.Trace) []trace.Problem {
	var probs []trace.Problem
	for r := range t.Ranks {
		probs = append(probs, oracleSanitizeRank(t, r)...)
	}
	return probs
}

func oracleSanitizeRank(t *trace.Trace, r int) []trace.Problem {
	var probs []trace.Problem
	add := func(kind string, count int, format string, args ...any) {
		if count > 0 {
			probs = append(probs, trace.Problem{Rank: r, Kind: kind, Count: count, Detail: fmt.Sprintf(format, args...)})
		}
	}
	rd := t.Ranks[r]
	if rd == nil {
		t.Ranks[r] = &trace.RankData{Rank: int32(r)}
		add(trace.ProblemRankMissing, 1, "rank slot was empty")
		return probs
	}

	// Rank-field normalization: records can only live in their own rank's
	// stream, so a foreign rank number is repaired, not relocated.
	foreign := 0
	if int(rd.Rank) != r {
		rd.Rank = int32(r)
		foreign++
	}
	for i := range rd.Events {
		if int(rd.Events[i].Rank) != r {
			rd.Events[i].Rank = int32(r)
			foreign++
		}
	}
	for i := range rd.Samples {
		if int(rd.Samples[i].Rank) != r {
			rd.Samples[i].Rank = int32(r)
			foreign++
		}
	}
	add(trace.ProblemRankField, foreign, "records carried a foreign rank number")

	// Drop events whose type is not defined; nothing downstream can
	// interpret them.
	badType := 0
	kept := rd.Events[:0]
	for _, e := range rd.Events {
		if !e.Type.Valid() {
			badType++
			continue
		}
		kept = append(kept, e)
	}
	rd.Events = kept
	add(trace.ProblemBadEventType, badType, "events with undefined types dropped")

	// Re-establish time order.
	disorder := oracleCountDisorder(rd)
	if disorder > 0 {
		sort.SliceStable(rd.Events, func(i, j int) bool { return rd.Events[i].Time < rd.Events[j].Time })
		sort.SliceStable(rd.Samples, func(i, j int) bool { return rd.Samples[i].Time < rd.Samples[j].Time })
		add(trace.ProblemOutOfOrder, disorder, "records re-sorted into time order")
	}

	// Drop exact duplicates (identical adjacent records).
	dups := oracleDedupEvents(rd) + oracleDedupSamples(rd)
	add(trace.ProblemDuplicate, dups, "exact duplicate records dropped")

	// Balance region/communication nesting by dropping unmatched events.
	dropped := oracleRepairNesting(rd)
	add(trace.ProblemNesting, dropped, "unmatched region/comm enter or exit events dropped")

	// Mask cumulative counter values that regress: counter wrap, zeroed or
	// garbled snapshots. The masked values read as "not captured", which
	// every downstream stage already handles (it is what multiplexing
	// produces legitimately).
	regress := oracleMaskCounterRegressions(rd)
	add(trace.ProblemCounterValue, regress, "non-monotonic cumulative counter values masked")

	// Clear unresolvable stack references.
	dangling := 0
	for i := range rd.Samples {
		s := &rd.Samples[i]
		if s.Stack != callstack.NoStack {
			if _, ok := t.Stacks.Get(s.Stack); !ok {
				s.Stack = callstack.NoStack
				dangling++
			}
		}
	}
	add(trace.ProblemDanglingStack, dangling, "unresolvable call-stack references cleared")
	return probs
}

// countDisorder counts records whose timestamp precedes their predecessor's.
func oracleCountDisorder(rd *trace.RankData) int {
	n := 0
	for i := 1; i < len(rd.Events); i++ {
		if rd.Events[i].Time < rd.Events[i-1].Time {
			n++
		}
	}
	for i := 1; i < len(rd.Samples); i++ {
		if rd.Samples[i].Time < rd.Samples[i-1].Time {
			n++
		}
	}
	return n
}

func oracleDedupEvents(rd *trace.RankData) int {
	if len(rd.Events) < 2 {
		return 0
	}
	out := rd.Events[:1]
	dropped := 0
	for _, e := range rd.Events[1:] {
		if e == out[len(out)-1] {
			dropped++
			continue
		}
		out = append(out, e)
	}
	rd.Events = out
	return dropped
}

func oracleDedupSamples(rd *trace.RankData) int {
	if len(rd.Samples) < 2 {
		return 0
	}
	out := rd.Samples[:1]
	dropped := 0
	for _, s := range rd.Samples[1:] {
		if s == out[len(out)-1] {
			dropped++
			continue
		}
		out = append(out, s)
	}
	rd.Samples = out
	return dropped
}

// repairNesting drops the minimal set of events that keeps region and
// communication enter/exit pairs balanced: an exit that matches no open
// enter (or, for regions, whose value does not match the innermost open
// region) is dropped on the spot; enters still open at the end of the
// stream — a truncated rank — are dropped afterwards.
func oracleRepairNesting(rd *trace.RankData) int {
	type open struct {
		value int64
		idx   int // index into out
	}
	var (
		out       = rd.Events[:0]
		regions   []open
		comms     []int // indices into out of open comm enters
		dropAtEnd []int
		dropped   = 0
	)
	for _, e := range rd.Events {
		switch e.Type {
		case trace.RegionEnter:
			regions = append(regions, open{value: e.Value, idx: len(out)})
		case trace.RegionExit:
			if len(regions) == 0 || regions[len(regions)-1].value != e.Value {
				dropped++
				continue
			}
			regions = regions[:len(regions)-1]
		case trace.CommEnter:
			comms = append(comms, len(out))
		case trace.CommExit:
			if len(comms) == 0 {
				dropped++
				continue
			}
			comms = comms[:len(comms)-1]
		}
		out = append(out, e)
	}
	for _, o := range regions {
		dropAtEnd = append(dropAtEnd, o.idx)
	}
	dropAtEnd = append(dropAtEnd, comms...)
	if len(dropAtEnd) == 0 {
		rd.Events = out
		return dropped
	}
	sort.Ints(dropAtEnd)
	final := out[:0]
	di := 0
	for i, e := range out {
		if di < len(dropAtEnd) && i == dropAtEnd[di] {
			di++
			dropped++
			continue
		}
		final = append(final, e)
	}
	rd.Events = final
	return dropped
}

// maskCounterRegressions restores per-counter monotonicity along the rank's
// merged event+sample timeline by masking the minimal set of values: for
// each counter it keeps the longest non-decreasing subsequence of captured
// values and masks the rest as not captured. The subsequence criterion matters —
// a greedy "mask anything below the running max" pass would let one garbled
// huge value poison every legitimate value after it, turning a 2% corruption
// rate into a near-total data loss.
func oracleMaskCounterRegressions(rd *trace.RankData) int {
	// Collect the merged timeline once as counter-set pointers.
	sets := make([]*counters.Set, 0, len(rd.Events)+len(rd.Samples))
	ei, si := 0, 0
	for ei < len(rd.Events) || si < len(rd.Samples) {
		haveE, haveS := ei < len(rd.Events), si < len(rd.Samples)
		if haveE && (!haveS || rd.Events[ei].Time <= rd.Samples[si].Time) {
			sets = append(sets, &rd.Events[ei].Counters)
			ei++
		} else {
			sets = append(sets, &rd.Samples[si].Counters)
			si++
		}
	}
	masked := 0
	var idxs []int
	var vals []int64
	for c := counters.ID(0); c < counters.NumIDs; c++ {
		idxs, vals = idxs[:0], vals[:0]
		for i, s := range sets {
			v, ok := s.Get(c)
			if !ok {
				continue
			}
			if v < 0 { // no valid cumulative counter is negative
				s.Drop(c)
				masked++
				continue
			}
			idxs = append(idxs, i)
			vals = append(vals, v)
		}
		for _, i := range oracleMaskOutsideLNDS(vals, idxs) {
			sets[i].Drop(c)
			masked++
		}
	}
	return masked
}

// maskOutsideLNDS returns the elements of idxs NOT on a longest
// non-decreasing subsequence of vals. Patience sorting with parent links,
// O(n log n).
func oracleMaskOutsideLNDS(vals []int64, idxs []int) []int {
	n := len(vals)
	if n < 2 {
		return nil
	}
	tails := make([]int, 0, n) // tails[k] = index of smallest tail of a subsequence of length k+1
	parent := make([]int, n)   // parent[i] = previous element on i's subsequence
	already := func(v int64, k int) bool { return vals[tails[k]] <= v }
	for i := 0; i < n; i++ {
		lo, hi := 0, len(tails)
		for lo < hi { // first tail position whose value exceeds vals[i]
			mid := (lo + hi) / 2
			if already(vals[i], mid) {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		if lo > 0 {
			parent[i] = tails[lo-1]
		} else {
			parent[i] = -1
		}
		if lo == len(tails) {
			tails = append(tails, i)
		} else {
			tails[lo] = i
		}
	}
	keep := make([]bool, n)
	for i := tails[len(tails)-1]; i >= 0; i = parent[i] {
		keep[i] = true
	}
	var out []int
	for i := range vals {
		if !keep[i] {
			out = append(out, idxs[i])
		}
	}
	return out
}

// sanitizeBoth runs Sanitize and the oracle on two clones of tr and fails
// unless they make the same repairs and leave the same records.
func sanitizeBoth(t *testing.T, name string, tr *trace.Trace) (repaired int) {
	t.Helper()
	got, want := tr.Clone(), tr.Clone()
	gotProbs, wantProbs := got.Sanitize(), oracleSanitize(want)
	if !reflect.DeepEqual(gotProbs, wantProbs) {
		t.Fatalf("%s: Sanitize problems %v, oracle %v", name, gotProbs, wantProbs)
	}
	if !reflect.DeepEqual(got.Ranks, want.Ranks) {
		for r := range got.Ranks {
			if !reflect.DeepEqual(got.Ranks[r], want.Ranks[r]) {
				t.Fatalf("%s: rank %d records differ from the oracle's", name, r)
			}
		}
	}
	return len(gotProbs)
}

// drainSalvaged reads data through a salvage-mode ChunkReader: the records
// a damaged stream still carries, before any repair. Nil when nothing is
// readable.
func drainSalvaged(t *testing.T, data []byte) *trace.Trace {
	t.Helper()
	cr, err := trace.NewChunkReader(context.Background(), bytes.NewReader(data), trace.DecodeOptions{Salvage: true})
	if err != nil {
		return nil
	}
	tr, err := cr.Skeleton()
	if err != nil {
		t.Fatal(err)
	}
	for {
		c, err := cr.Next(0)
		if err != nil {
			return tr
		}
		rd := tr.Ranks[c.Rank]
		rd.Events = append(rd.Events, c.Events...)
		rd.Samples = append(rd.Samples, c.Samples...)
	}
}

// TestSanitizeMatchesOracle holds Sanitize to the oracle on simulated and
// golden traces, pristine and under every fault class that damages records
// (the trace classes applied to the records, the stream classes to the
// encoding, read back through a salvage ChunkReader), plus hand-built
// counter timelines.
func TestSanitizeMatchesOracle(t *testing.T) {
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
	traceClasses := []string{"drop=0.1", "dup=0.1", "garble=0.05", "killrank=0.3", "reorder=0.1",
		"skew=10ms", "truncate=0.3", "wrap=24", "zero=0.05"}
	streamClasses := []string{"chop=0.4", "corrupt=0.001", "corrupt=0.01"}
	repaired := 0
	for bi, tr := range base {
		sanitizeBoth(t, fmt.Sprintf("trace%d/pristine", bi), tr)
		for _, spec := range append(traceClasses, streamClasses...) {
			for seed := uint64(1); seed <= 3; seed++ {
				c, err := faults.Parse(spec, seed)
				if err != nil {
					t.Fatal(err)
				}
				work := tr.Clone()
				c.ApplyTrace(work)
				if len(c.Stream) > 0 {
					var buf bytes.Buffer
					if err := trace.Encode(&buf, work); err != nil {
						t.Fatal(err)
					}
					if work = drainSalvaged(t, c.ApplyStream(buf.Bytes())); work == nil {
						continue
					}
				}
				repaired += sanitizeBoth(t, fmt.Sprintf("trace%d/%s/seed%d", bi, spec, seed), work)
			}
		}
	}
	if repaired == 0 {
		t.Fatal("no fault class needed a repair; the comparison proves nothing")
	}

	// One rank, counters on hand-built timelines: events at 10, 20, ...,
	// samples between them, values from vals in merged order (-2 leaves
	// the counter uncaptured).
	timeline := func(vals ...int64) *trace.Trace {
		tr := trace.New("timeline", 1, nil, nil)
		rd := tr.Ranks[0]
		for i, v := range vals {
			set := counters.AllMissing()
			if v != -2 {
				set.Put(counters.Instructions, v)
				set.Put(counters.Cycles, 2*v)
			}
			if i%2 == 0 {
				typ := trace.IterBegin
				if i%4 == 2 {
					typ = trace.IterEnd
				}
				rd.Events = append(rd.Events, trace.Event{Time: sim.Time(10 * (i + 1)), Type: typ, Counters: set})
			} else {
				rd.Samples = append(rd.Samples, trace.Sample{Time: sim.Time(10 * (i + 1)), Counters: set, Stack: callstack.NoStack})
			}
		}
		return tr
	}
	cases := map[string][]int64{
		"increasing":     {1, 2, 3, 4, 5, 6},
		"equal":          {5, 5, 5, 5, 5, 5},
		"negative":       {1, 2, -7, 4, 5, 6},
		"huge-garbled":   {1, 2, 1 << 60, 4, 5, 6},
		"regress":        {1, 2, 3, 0, 5, 6},
		"never-captured": {-2, -2, -2, -2, -2, -2},
		"some-captured":  {-2, 3, -2, 1, -2, 4},
		"empty":          {},
	}
	for name, vals := range cases {
		sanitizeBoth(t, "timeline/"+name, timeline(vals...))
	}
}

// TestSanitizePristineIsNoop requires a clean simulated trace to come back
// exactly as it went in, with no problem reported.
func TestSanitizePristineIsNoop(t *testing.T) {
	a, err := simapp.NewApp("cg")
	if err != nil {
		t.Fatal(err)
	}
	run, err := core.RunApp(a, simapp.Config{Ranks: 4, Iterations: 60, Seed: 9, FreqGHz: 2}, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	work := run.Trace.Clone()
	if probs := work.Sanitize(); len(probs) != 0 {
		t.Fatalf("pristine trace reported %v", probs)
	}
	if !reflect.DeepEqual(work.Ranks, run.Trace.Ranks) {
		t.Fatal("Sanitize changed a pristine trace")
	}
}

// FuzzSanitize holds Sanitize to the oracle on a small trace whose record
// times, event types and counter values the input rewrites.
func FuzzSanitize(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 1, 200, 3, 2, 0, 9, 0, 5})
	f.Add([]byte{7, 2, 9, 11, 1, 3, 4, 0, 128, 30, 3, 255})
	f.Add([]byte("out of order, duplicated and garbled"))
	f.Fuzz(func(t *testing.T, data []byte) {
		tr := goldenTrace(t, 3)
		for _, rd := range tr.Ranks {
			rd.Events, rd.Samples = rd.Events[:24], rd.Samples[:12]
		}
		// Each triple picks a record of rank idx%4, a field, and a value.
		for ; len(data) >= 3; data = data[3:] {
			idx, field, val := int(data[0]), data[1], data[2]
			rd := tr.Ranks[idx%len(tr.Ranks)]
			var tm *sim.Time
			var set *counters.Set
			if field&1 == 0 {
				e := &rd.Events[idx%len(rd.Events)]
				tm, set = &e.Time, &e.Counters
				if field&2 != 0 {
					e.Type = trace.EventType(val % 8)
				}
			} else {
				s := &rd.Samples[idx%len(rd.Samples)]
				tm, set = &s.Time, &s.Counters
				if field&2 != 0 {
					*s = rd.Samples[(idx+1)%len(rd.Samples)]
				}
			}
			id := counters.ID(field >> 2 % 3)
			switch field >> 4 {
			case 0, 1:
				*tm += sim.Time(int8(val))
			case 2, 3:
				set.Put(id, int64(int8(val))*1000)
			case 4:
				set.Put(id, int64(val)<<40)
			case 5:
				set.Drop(id)
			default:
				if v, ok := set.Get(id); ok {
					set.Put(id, v+int64(int8(val)))
				}
			}
		}
		sanitizeBoth(t, "fuzz", tr)
	})
}
