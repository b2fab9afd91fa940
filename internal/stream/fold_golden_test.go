package stream

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"testing"

	"phasefold/internal/callstack"
	"phasefold/internal/core"
	"phasefold/internal/counters"
	"phasefold/internal/folding"
	"phasefold/internal/sim"
	"phasefold/internal/simapp"
)

var updateFoldGolden = flag.Bool("update", false, "rewrite testdata/fold_golden.json from the current implementation")

// foldGoldenPath pins every cluster's folded cloud over a simapp grid. The
// file was written by the fold that sorted each counter cloud and the stack
// timeline separately with sort.Slice, and grew a separate slice per counter
// in the streamed burst clouds; the test proves the single-permutation sort
// and the sample-major clouds reproduce those clouds bit for bit.
// Regenerate (-update) only when folded clouds are meant to change.
const foldGoldenPath = "testdata/fold_golden.json"

// foldGoldenEntry is one fixture's pinned result: per cluster, in model
// order, the SHA-256 of the batch Analyze fold and of the streamed Done fold.
type foldGoldenEntry struct {
	Fixture  string   `json:"fixture"`
	Batch    []string `json:"batch_sha256"`
	Streamed []string `json:"streamed_sha256"`
}

// foldedDigest hashes everything a fold produces: the label, burst counts,
// representative duration, per-counter median deltas, every cloud point as
// raw float bits and the stack timeline. Stack IDs depend on the order the
// simulated ranks interned them, which varies between runs, so the timeline
// hashes each stack's frames instead; the interner maps IDs to distinct
// frame lists one to one, so this pins the same order. A nil fold hashes to
// "nil".
func foldedDigest(f *folding.Folded, stacks *callstack.Interner) string {
	if f == nil {
		return "nil"
	}
	h := sha256.New()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	put(uint64(f.Cluster))
	put(uint64(f.NumBursts))
	put(uint64(f.UsedBursts))
	put(uint64(f.RepDuration))
	for id := counters.ID(0); id < counters.NumIDs; id++ {
		v, ok := f.TotalDelta.Get(id)
		if !ok {
			v = -1 // an uncaptured counter hashes as it always has
		}
		put(uint64(v))
	}
	for id := range f.Points {
		put(uint64(len(f.Points[id])))
		for _, p := range f.Points[id] {
			put(math.Float64bits(p.X))
			put(math.Float64bits(p.Y))
		}
	}
	put(uint64(len(f.Stacks)))
	for _, s := range f.Stacks {
		put(math.Float64bits(s.X))
		st, _ := stacks.Get(s.Stack)
		put(uint64(len(st)))
		for _, fr := range st {
			put(uint64(fr.Routine))
			put(uint64(fr.Line))
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

func modelFoldDigests(m *core.Model, stacks *callstack.Interner) []string {
	out := make([]string, 0, len(m.Clusters))
	for _, ca := range m.Clusters {
		if ca == nil {
			out = append(out, "none")
			continue
		}
		out = append(out, foldedDigest(ca.Folded, stacks))
	}
	return out
}

func foldGoldenEntryFor(t *testing.T, app string, period sim.Duration, mux bool) foldGoldenEntry {
	t.Helper()
	a, err := simapp.NewApp(app)
	if err != nil {
		t.Fatal(err)
	}
	opt := core.DefaultOptions()
	opt.SamplingPeriod = period
	sched := "native"
	if mux {
		opt.Schedule = counters.NewSchedule(counters.DefaultGroups())
		sched = "mux"
	}
	run, err := core.RunApp(a, simapp.Config{Ranks: 4, Iterations: 100, Seed: 42, FreqGHz: 2}, opt)
	if err != nil {
		t.Fatal(err)
	}
	tr := run.Trace
	e := foldGoldenEntry{Fixture: fmt.Sprintf("%s/%v/%s", app, period, sched)}
	batch, err := core.Analyze(context.Background(), tr, opt)
	if err != nil {
		t.Fatalf("%s: batch: %v", e.Fixture, err)
	}
	e.Batch = modelFoldDigests(batch, tr.Stacks)
	s := sessionFor(t, context.Background(), tr, Options{Core: opt})
	if err := s.FeedTrace(tr); err != nil {
		t.Fatalf("%s: feed: %v", e.Fixture, err)
	}
	streamed, err := s.Done()
	if err != nil {
		t.Fatalf("%s: done: %v", e.Fixture, err)
	}
	e.Streamed = modelFoldDigests(streamed, tr.Stacks)
	return e
}

// TestFoldMatchesGolden folds all five apps at 100 µs and 1 ms sampling,
// under the native PMU and the DefaultGroups multiplex rotation (whose
// rotating counters fold into clouds with their own X sequences), through
// batch Analyze and streamed Done, and compares every cluster's fold with
// the pinned golden.
func TestFoldMatchesGolden(t *testing.T) {
	var got []foldGoldenEntry
	for _, app := range []string{"multiphase", "cg", "stencil", "nbody", "amr"} {
		for _, period := range []sim.Duration{100 * sim.Microsecond, sim.Millisecond} {
			for _, mux := range []bool{false, true} {
				got = append(got, foldGoldenEntryFor(t, app, period, mux))
			}
		}
	}
	if *updateFoldGolden {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(foldGoldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(foldGoldenPath, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(foldGoldenPath)
	if err != nil {
		t.Fatal(err)
	}
	var want []foldGoldenEntry
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("%d fixtures, golden has %d", len(got), len(want))
	}
	for i := range want {
		g, w := got[i], want[i]
		if g.Fixture != w.Fixture || fmt.Sprint(g.Batch) != fmt.Sprint(w.Batch) || fmt.Sprint(g.Streamed) != fmt.Sprint(w.Streamed) {
			t.Errorf("fixture %s:\n got %+v\nwant %+v", w.Fixture, g, w)
		}
	}
}
