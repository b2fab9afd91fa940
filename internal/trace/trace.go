package trace

import (
	"fmt"
	"sort"

	"phasefold/internal/callstack"
	"phasefold/internal/sim"
)

// RankData holds the records of a single process (rank), each stream in
// time order.
type RankData struct {
	Rank    int32
	Events  []Event
	Samples []Sample
}

// Trace is a complete multi-rank execution record plus the shared symbol
// information needed to interpret call stacks.
type Trace struct {
	// AppName labels the traced application in reports.
	AppName string
	// Ranks holds per-process records, indexed by rank number.
	Ranks []*RankData
	// Symbols is the routine/line table of the traced binary.
	Symbols *callstack.SymbolTable
	// Stacks interns the call-stack snapshots referenced by samples.
	Stacks *callstack.Interner
}

// New returns an empty trace for nRanks processes sharing the given symbol
// table and stack interner. Either may be nil, in which case fresh empty
// ones are created. New is for in-repo construction where the rank count is
// known good; it panics on a non-positive count. Code handling decoded or
// otherwise untrusted input must use NewChecked instead.
func New(appName string, nRanks int, syms *callstack.SymbolTable, stacks *callstack.Interner) *Trace {
	t, err := NewChecked(appName, nRanks, syms, stacks)
	if err != nil {
		panic(err.Error())
	}
	return t
}

// NewChecked is New with the rank-count invariant reported as an error
// instead of a panic — the constructor for counts read from external input.
func NewChecked(appName string, nRanks int, syms *callstack.SymbolTable, stacks *callstack.Interner) (*Trace, error) {
	if nRanks <= 0 {
		return nil, fmt.Errorf("%w: non-positive rank count %d", ErrNoRanks, nRanks)
	}
	if syms == nil {
		syms = callstack.NewSymbolTable()
	}
	if stacks == nil {
		stacks = callstack.NewInterner()
	}
	t := &Trace{AppName: appName, Symbols: syms, Stacks: stacks}
	t.Ranks = make([]*RankData, nRanks)
	for i := range t.Ranks {
		t.Ranks[i] = &RankData{Rank: int32(i)}
	}
	return t, nil
}

// NumRanks returns the number of processes in the trace.
func (t *Trace) NumRanks() int { return len(t.Ranks) }

// Rank returns the records of rank r, panicking on an out-of-range rank —
// rank numbers come from the trace itself, so a bad index is a program bug.
// Callers holding a rank number from user or decoded input must use
// RankChecked.
func (t *Trace) Rank(r int) *RankData {
	rd, err := t.RankChecked(r)
	if err != nil {
		panic(err.Error())
	}
	return rd
}

// RankChecked returns the records of rank r, reporting an out-of-range rank
// as an error — the accessor for rank numbers originating outside the trace
// (CLI flags, decoded files).
func (t *Trace) RankChecked(r int) (*RankData, error) {
	if r < 0 || r >= len(t.Ranks) {
		return nil, fmt.Errorf("trace: rank %d out of range [0,%d)", r, len(t.Ranks))
	}
	return t.Ranks[r], nil
}

// AddEvent appends an event to its rank's stream.
func (t *Trace) AddEvent(e Event) {
	rd := t.Rank(int(e.Rank))
	rd.Events = append(rd.Events, e)
}

// AddSample appends a sample to its rank's stream.
func (t *Trace) AddSample(s Sample) {
	rd := t.Rank(int(s.Rank))
	rd.Samples = append(rd.Samples, s)
}

// NumEvents returns the total event count across ranks.
func (t *Trace) NumEvents() int {
	n := 0
	for _, rd := range t.Ranks {
		n += len(rd.Events)
	}
	return n
}

// NumSamples returns the total sample count across ranks.
func (t *Trace) NumSamples() int {
	n := 0
	for _, rd := range t.Ranks {
		n += len(rd.Samples)
	}
	return n
}

// EndTime returns the timestamp of the last record in the trace.
func (t *Trace) EndTime() sim.Time {
	var end sim.Time
	for _, rd := range t.Ranks {
		if n := len(rd.Events); n > 0 && rd.Events[n-1].Time > end {
			end = rd.Events[n-1].Time
		}
		if n := len(rd.Samples); n > 0 && rd.Samples[n-1].Time > end {
			end = rd.Samples[n-1].Time
		}
	}
	return end
}

// SortRecords re-establishes time order within every rank's streams. Trace
// producers in this repository emit in order already; SortRecords exists for
// decoded sources.
func (t *Trace) SortRecords() {
	for _, rd := range t.Ranks {
		sort.SliceStable(rd.Events, func(i, j int) bool { return rd.Events[i].Time < rd.Events[j].Time })
		sort.SliceStable(rd.Samples, func(i, j int) bool { return rd.Samples[i].Time < rd.Samples[j].Time })
	}
}

// Validate checks the structural invariants decoded or hand-built traces
// must satisfy: records sorted by time, rank fields matching their stream,
// balanced region/comm nesting, stack references resolving, and cumulative
// counter values non-decreasing. The returned error wraps ErrInvalid.
func (t *Trace) Validate() error {
	for r := range t.Ranks {
		if err := t.ValidateRank(r); err != nil {
			return err
		}
	}
	return nil
}

// ValidateRank checks the invariants of a single rank's streams, so callers
// isolating faults per process (the degraded-mode analyzer) can keep the
// healthy ranks of a partially damaged trace. The returned error wraps
// ErrInvalid.
func (t *Trace) ValidateRank(r int) error {
	rd, err := t.RankSlot(r)
	if err != nil {
		return err
	}
	v := NewRankValidator(r, t.Stacks)
	v.Events(rd.Events)
	v.Samples(rd.Samples)
	return v.Finish()
}

// RankSlot returns the records in rank slot r, or the ErrInvalid error
// ValidateRank reports for a slot that is out of range, empty, or holds
// another rank's records.
func (t *Trace) RankSlot(r int) (*RankData, error) {
	if r < 0 || r >= len(t.Ranks) {
		return nil, fmt.Errorf("%w: rank %d out of range [0,%d)", ErrInvalid, r, len(t.Ranks))
	}
	rd := t.Ranks[r]
	if rd == nil {
		return nil, fmt.Errorf("%w: rank %d missing", ErrInvalid, r)
	}
	if int(rd.Rank) != r {
		return nil, fmt.Errorf("%w: rank slot %d holds rank %d", ErrInvalid, r, rd.Rank)
	}
	return rd, nil
}

// Clone returns a deep copy of the trace's per-rank record streams. The
// symbol table and stack interner are shared with the original — they are
// append-only and record mutation never touches them — so a clone is cheap
// enough to perturb in fault-injection sweeps while the pristine original
// stays intact.
func (t *Trace) Clone() *Trace {
	out := &Trace{AppName: t.AppName, Symbols: t.Symbols, Stacks: t.Stacks}
	out.Ranks = make([]*RankData, len(t.Ranks))
	for i, rd := range t.Ranks {
		if rd == nil {
			continue
		}
		c := &RankData{Rank: rd.Rank}
		c.Events = append([]Event(nil), rd.Events...)
		c.Samples = append([]Sample(nil), rd.Samples...)
		out.Ranks[i] = c
	}
	return out
}
