package trace

import (
	"fmt"
	"slices"
	"sort"

	"phasefold/internal/callstack"
	"phasefold/internal/counters"
)

// Problem describes one class of damage Sanitize found (and repaired) in a
// rank's streams. Problems are diagnostics, not errors: after Sanitize the
// trace satisfies Validate's invariants again, at the cost of the dropped or
// degraded records the problem records.
type Problem struct {
	// Rank is the process the problem was found in.
	Rank int
	// Kind is a stable machine-readable slug (see the Problem* constants).
	Kind string
	// Count is how many records were affected.
	Count int
	// Detail is the human-readable description.
	Detail string
}

// The problem kinds Sanitize reports.
const (
	ProblemRankMissing   = "rank-missing"    // nil rank slot replaced by an empty one
	ProblemRankField     = "rank-field"      // records carried a foreign rank number
	ProblemBadEventType  = "bad-event-type"  // events with undefined types dropped
	ProblemOutOfOrder    = "out-of-order"    // records re-sorted into time order
	ProblemDuplicate     = "duplicate"       // exact duplicate records dropped
	ProblemNesting       = "nesting"         // unmatched enter/exit events dropped
	ProblemCounterValue  = "counter-regress" // non-monotonic counter values masked
	ProblemDanglingStack = "dangling-stack"  // unresolvable stack references cleared
	ProblemCorruptLine   = "corrupt-line"    // malformed text-format lines skipped
)

func (p Problem) String() string {
	return fmt.Sprintf("rank %d: %s (%d records): %s", p.Rank, p.Kind, p.Count, p.Detail)
}

// Sanitize repairs a damaged trace in place so that it satisfies Validate's
// invariants again, returning a description of every repair made. It is the
// shared recovery pass behind salvage decoding and degraded-mode analysis:
// rather than rejecting a trace whose acquisition dropped, duplicated,
// reordered, or corrupted records, Sanitize keeps everything trustworthy and
// removes or masks the rest.
//
// Repairs, per rank: nil rank slots are replaced by empty ones; foreign rank
// fields are rewritten; events with undefined types are dropped; streams are
// re-sorted into time order; exact duplicate records are dropped; unmatched
// region/communication enter and exit events are dropped until the nesting
// balances; cumulative counter values that regress (counter wrap, zeroed or
// garbled values) are masked as not captured; unresolvable call-stack references
// are cleared. A pristine trace is untouched and reports no problems.
func (t *Trace) Sanitize() []Problem {
	var probs []Problem
	for r := range t.Ranks {
		probs = append(probs, t.SanitizeRank(r)...)
	}
	return probs
}

// SanitizeRank is Sanitize for rank slot r alone: it repairs that slot in
// place, reading nothing of the other ranks, and returns its problems. It
// is the one per-rank repair pass behind Sanitize, salvage decoding and
// the analysis ingest.
func (t *Trace) SanitizeRank(r int) []Problem {
	var probs []Problem
	add := func(kind string, count int, format string, args ...any) {
		if count > 0 {
			probs = append(probs, Problem{Rank: r, Kind: kind, Count: count, Detail: fmt.Sprintf(format, args...)})
		}
	}
	rd := t.Ranks[r]
	if rd == nil {
		t.Ranks[r] = &RankData{Rank: int32(r)}
		add(ProblemRankMissing, 1, "rank slot was empty")
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
	add(ProblemRankField, foreign, "records carried a foreign rank number")

	// Drop events whose type is not defined; nothing downstream can
	// interpret them. Like every drop pass below, DeleteFunc writes nothing
	// before the first record it drops, so a rank that needs no repair is
	// only read.
	n := len(rd.Events)
	rd.Events = slices.DeleteFunc(rd.Events, func(e Event) bool { return !e.Type.Valid() })
	badType := n - len(rd.Events)
	add(ProblemBadEventType, badType, "events with undefined types dropped")

	// Re-establish time order.
	disorder := countDisorder(rd)
	if disorder > 0 {
		sort.SliceStable(rd.Events, func(i, j int) bool { return rd.Events[i].Time < rd.Events[j].Time })
		sort.SliceStable(rd.Samples, func(i, j int) bool { return rd.Samples[i].Time < rd.Samples[j].Time })
		add(ProblemOutOfOrder, disorder, "records re-sorted into time order")
	}

	// Drop exact duplicates (identical adjacent records).
	dups := dedupEvents(rd) + dedupSamples(rd)
	add(ProblemDuplicate, dups, "exact duplicate records dropped")

	// Balance region/communication nesting by dropping unmatched events.
	dropped := repairNesting(rd)
	add(ProblemNesting, dropped, "unmatched region/comm enter or exit events dropped")

	// Mask cumulative counter values that regress: counter wrap, zeroed or
	// garbled snapshots. The masked values read as "not captured", which
	// every downstream stage already handles (it is what multiplexing
	// produces legitimately).
	regress := maskCounterRegressions(rd)
	add(ProblemCounterValue, regress, "non-monotonic cumulative counter values masked")

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
	add(ProblemDanglingStack, dangling, "unresolvable call-stack references cleared")
	return probs
}

// countDisorder counts records whose timestamp precedes their predecessor's.
func countDisorder(rd *RankData) int {
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

// dedupEvents drops each event equal to the one before it.
func dedupEvents(rd *RankData) int {
	n := len(rd.Events)
	rd.Events = slices.Compact(rd.Events)
	return n - len(rd.Events)
}

// dedupSamples drops each sample equal to the one before it.
func dedupSamples(rd *RankData) int {
	n := len(rd.Samples)
	rd.Samples = slices.Compact(rd.Samples)
	return n - len(rd.Samples)
}

// repairNesting drops the minimal set of events that keeps region and
// communication enter/exit pairs balanced: an exit that matches no open
// enter (or, for regions, whose value does not match the innermost open
// region) is dropped on the spot; enters still open at the end of the
// stream — a truncated rank — are dropped afterwards.
func repairNesting(rd *RankData) int {
	type open struct {
		value int64
		idx   int // index into out
	}
	var (
		regions   []open
		comms     []int // indices into out of open comm enters
		dropAtEnd []int
		dropped   = 0
		kept      = 0 // the kept events are moved up to the front
	)
	for i := range rd.Events {
		e := &rd.Events[i]
		switch e.Type {
		case RegionEnter:
			regions = append(regions, open{value: e.Value, idx: kept})
		case RegionExit:
			if len(regions) == 0 || regions[len(regions)-1].value != e.Value {
				dropped++
				continue
			}
			regions = regions[:len(regions)-1]
		case CommEnter:
			comms = append(comms, kept)
		case CommExit:
			if len(comms) == 0 {
				dropped++
				continue
			}
			comms = comms[:len(comms)-1]
		}
		if kept != i { // nothing moves before the first drop
			rd.Events[kept] = *e
		}
		kept++
	}
	out := rd.Events[:kept]
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
//
// A rank whose captured values are already non-negative and
// non-decreasing, which one pass of Set.Advance establishes, is its own
// longest subsequence for every counter: it returns before any of that.
func maskCounterRegressions(rd *RankData) int {
	last := counters.AllMissing()
	monotone := true
	mergedCounters(rd, func(s *counters.Set) bool {
		_, bad := last.Advance(s)
		monotone = !bad
		return monotone
	})
	if monotone {
		return 0
	}
	// Collect the merged timeline once as counter-set pointers.
	sets := make([]*counters.Set, 0, len(rd.Events)+len(rd.Samples))
	mergedCounters(rd, func(s *counters.Set) bool {
		sets = append(sets, s)
		return true
	})
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
		for _, i := range maskOutsideLNDS(vals, idxs) {
			sets[i].Drop(c)
			masked++
		}
	}
	return masked
}

// mergedCounters calls yield with the counters of each of the rank's
// records along its merged timeline, an event before a sample of the same
// time, until yield returns false.
func mergedCounters(rd *RankData, yield func(*counters.Set) bool) {
	ei, si := 0, 0
	for ei < len(rd.Events) || si < len(rd.Samples) {
		var s *counters.Set
		if ei < len(rd.Events) && (si == len(rd.Samples) || rd.Events[ei].Time <= rd.Samples[si].Time) {
			s = &rd.Events[ei].Counters
			ei++
		} else {
			s = &rd.Samples[si].Counters
			si++
		}
		if !yield(s) {
			return
		}
	}
}

// maskOutsideLNDS returns the elements of idxs NOT on a longest
// non-decreasing subsequence of vals. Patience sorting with parent links,
// O(n log n).
func maskOutsideLNDS(vals []int64, idxs []int) []int {
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
