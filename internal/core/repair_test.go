package core

import (
	"bytes"
	"context"
	"fmt"
	"reflect"
	"slices"
	"testing"

	"phasefold/internal/faults"
	"phasefold/internal/obs"
	"phasefold/internal/trace"
)

// withRank returns a view of tr whose slot r holds rd; the other slots are
// tr's own.
func withRank(tr *trace.Trace, r int, rd *trace.RankData) *trace.Trace {
	view := *tr
	view.Ranks = slices.Clone(tr.Ranks)
	view.Ranks[r] = rd
	return &view
}

// cloneRank returns a deep copy of rank r's records.
func cloneRank(tr *trace.Trace, r int) *trace.RankData {
	rd := tr.Ranks[r]
	return &trace.RankData{Rank: rd.Rank, Events: slices.Clone(rd.Events), Samples: slices.Clone(rd.Samples)}
}

// withoutStage returns m's diagnostics of stage, and a shallow copy of m
// without them.
func withoutStage(m *Model, stage string) (*Model, []Diagnostic) {
	rest := *m
	rest.Diagnostics = nil
	var got []Diagnostic
	for _, d := range m.Diagnostics {
		if d.Stage == stage {
			got = append(got, d)
		} else {
			rest.Diagnostics = append(rest.Diagnostics, d)
		}
	}
	return &rest, got
}

// countSpans counts the spans named name in the trees under roots.
func countSpans(roots []*obs.Span, name string) int {
	n := 0
	for _, s := range roots {
		if s.Name() == name {
			n++
		}
		n += countSpans(s.Children(), name)
	}
	return n
}

// mustRepairRanksAlone holds lenient Analyze of tr to the per-rank repair
// contract and reports how many ranks it repaired. Each rank that fails
// validation is replaced by its sanitized clone, and nothing else: the
// model is Analyze's over that reference trace, apart from the sanitize
// diagnostics, which are exactly the repaired ranks' problems in rank
// order. The caller's trace keeps its encoded bytes, the model is the same
// at every Parallelism, and the trace is ingested once (one extract span).
func mustRepairRanksAlone(t *testing.T, tr *trace.Trace) (repaired int) {
	t.Helper()
	ref := tr
	var want []string
	for r := range tr.Ranks {
		if tr.ValidateRank(r) == nil {
			continue
		}
		repaired++
		ref = withRank(ref, r, cloneRank(tr, r))
		for _, p := range ref.SanitizeRank(r) {
			want = append(want, fmt.Sprintf("%d %s: %d records (%s)", p.Rank, p.Kind, p.Count, p.Detail))
		}
	}
	before := encodeTrace(t, tr)
	opt := DefaultOptions()
	refModel, err := Analyze(context.Background(), ref, opt)
	if err != nil {
		t.Fatal(err)
	}
	refModel, _ = withoutStage(refModel, "sanitize")
	var first []byte
	for _, p := range []int{1, 2, 4} {
		opt.Parallelism = p
		rec := obs.NewRecorder()
		m, err := Analyze(obs.WithTelemetry(context.Background(), rec, obs.NewRegistry()), tr, opt)
		if err != nil {
			t.Fatalf("Parallelism %d: %v", p, err)
		}
		if n := countSpans(rec.Roots(), "extract"); n != 1 {
			t.Fatalf("Parallelism %d: %d extract spans, want 1", p, n)
		}
		if b := modelBytes(t, tr, m); first == nil {
			first = b
		} else if !bytes.Equal(b, first) {
			t.Fatalf("Parallelism %d: model differs from Parallelism 1", p)
		}
		rest, diags := withoutStage(m, "sanitize")
		if !reflect.DeepEqual(rest, refModel) {
			t.Fatalf("Parallelism %d: model differs from Analyze with the damaged ranks sanitized alone", p)
		}
		var got []string
		for _, d := range diags {
			got = append(got, fmt.Sprintf("%d %s", d.Rank, d.Message))
		}
		if !slices.Equal(got, want) {
			t.Fatalf("Parallelism %d: sanitize diagnostics\n%q\nwant the repaired ranks' problems\n%q", p, got, want)
		}
	}
	if !bytes.Equal(encodeTrace(t, tr), before) {
		t.Fatal("lenient Analyze modified the caller's trace")
	}
	return repaired
}

// TestAnalyzeRepairsOnlyDamagedRanks damages one rank of a 4-rank trace with
// each trace-level fault class of TestAnalyzeParallelIdenticalToSerial's
// sweep, and holds lenient Analyze to repairing that rank alone.
func TestAnalyzeRepairsOnlyDamagedRanks(t *testing.T) {
	base := acquireTrace(t)
	const k = 2
	repaired := 0
	for _, spec := range []string{
		"drop=0.2", "killrank=0.1", "truncate=0.1", "skew=10ms",
		"wrap=30", "dup=0.1", "reorder=0.1", "zero=0.1", "garble=0.1",
	} {
		t.Run(spec, func(t *testing.T) {
			// The first seed that changes rank k; killrank may spare it
			// under several.
			for seed := uint64(1); seed <= 64; seed++ {
				c, err := faults.Parse(spec, seed)
				if err != nil {
					t.Fatal(err)
				}
				work := base.Clone()
				c.ApplyTrace(work)
				if !reflect.DeepEqual(work.Ranks[k], base.Ranks[k]) {
					repaired += mustRepairRanksAlone(t, withRank(base, k, work.Ranks[k]))
					return
				}
			}
			t.Fatalf("no seed in 1..64 damaged rank %d", k)
		})
	}
	if repaired == 0 {
		t.Fatal("no fault class made a rank fail validation; the sweep proves nothing")
	}

	// A rank that passes validation is left alone, even while another rank
	// is repaired: rank 0 keeps its exact-duplicate sample and gets no
	// sanitize diagnostic.
	dup := cloneRank(base, 0)
	dup.Samples = slices.Insert(dup.Samples, 10, dup.Samples[10])
	reordered := cloneRank(base, 1)
	evs := reordered.Events
	i := 1
	for evs[i-1].Time == evs[i].Time {
		i++
	}
	evs[i-1], evs[i] = evs[i], evs[i-1]
	tr := withRank(withRank(base, 0, dup), 1, reordered)
	if tr.ValidateRank(0) != nil || tr.ValidateRank(1) == nil {
		t.Fatalf("corner case not as built: rank 0 %v, rank 1 %v", tr.ValidateRank(0), tr.ValidateRank(1))
	}
	if n := mustRepairRanksAlone(t, tr); n != 1 {
		t.Fatalf("repaired %d ranks, want rank 1 alone", n)
	}
}
