package trace_test

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"hash"
	"io"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"phasefold/internal/callstack"
	"phasefold/internal/counters"
	"phasefold/internal/exec"
	"phasefold/internal/faults"
	"phasefold/internal/sim"
	"phasefold/internal/trace"
)

var updateDecodeGolden = flag.Bool("update", false, "rewrite testdata/decode_golden.json from the current implementation")

// decodeGoldenPath pins what both binary readers make of pristine and
// damaged input: the records and salvage report of strict and salvage
// Decode at several worker counts, and the chunk sequence of ChunkReader at
// several chunk limits. It was written before Decode became a driver over
// ChunkReader's parser, and proves the merge kept every record, report and
// error text. Regenerate (-update) only when decoding is meant to change.
const decodeGoldenPath = "testdata/decode_golden.json"

// goldenTrace builds a deterministic four-rank trace shaped like an
// instrumented SPMD run: iterations of two regions, each with a few sampled
// call stacks and a communication, and counters multiplexed over two groups.
// (Simulated applications intern stacks in a run-dependent order, so they
// cannot feed a byte-level golden.)
func goldenTrace(t *testing.T, seed uint64) *trace.Trace {
	t.Helper()
	rng := sim.NewRNG(seed)
	syms := callstack.NewSymbolTable()
	var routines []callstack.RoutineID
	for i, name := range []string{"main", "solve", "exchange"} {
		routines = append(routines, syms.Define(callstack.Routine{
			Name: name, File: "app.c", StartLine: 1 + 100*i, EndLine: 90 + 100*i,
		}))
	}
	tr := trace.New("golden", 4, syms, callstack.NewInterner())
	for rank := int32(0); rank < 4; rank++ {
		now, ins := sim.Time(0), int64(0)
		step := func(d int) {
			now += sim.Time(1 + rng.Intn(d))
			ins += int64(1 + rng.Intn(3*d))
		}
		ctr := func(group uint8) counters.Set {
			s := counters.AllMissing()
			s.Put(counters.Instructions, ins)
			if group == 0 {
				s.Put(counters.Cycles, 2*ins)
			} else {
				s.Put(counters.L1DMisses, ins/7)
			}
			return s
		}
		for it := int64(0); it < 40; it++ {
			g := uint8(it % 2)
			step(50)
			tr.AddEvent(trace.Event{Time: now, Rank: rank, Type: trace.IterBegin, Value: it, Counters: ctr(g), Group: g})
			for region := int64(1); region <= 2; region++ {
				step(50)
				tr.AddEvent(trace.Event{Time: now, Rank: rank, Type: trace.RegionEnter, Value: region, Counters: ctr(g), Group: g})
				for s := 0; s < 3; s++ {
					step(400)
					st := tr.Stacks.Intern(callstack.Stack{
						{Routine: routines[0], Line: 10},
						{Routine: routines[region], Line: 100*int(region) + rng.Intn(20)},
					})
					tr.AddSample(trace.Sample{Time: now, Rank: rank, Counters: ctr(g), Stack: st, Group: g})
				}
				step(50)
				tr.AddEvent(trace.Event{Time: now, Rank: rank, Type: trace.RegionExit, Value: region, Counters: ctr(g), Group: g})
				step(20)
				tr.AddEvent(trace.Event{Time: now, Rank: rank, Type: trace.CommEnter, Value: int64((rank + 1) % 4), Counters: ctr(g), Group: g})
				step(100)
				tr.AddEvent(trace.Event{Time: now, Rank: rank, Type: trace.CommExit, Value: int64((rank + 1) % 4), Counters: ctr(g), Group: g})
			}
			step(50)
			tr.AddEvent(trace.Event{Time: now, Rank: rank, Type: trace.IterEnd, Value: it, Counters: ctr(g), Group: g})
		}
	}
	if err := tr.Validate(); err != nil {
		t.Fatalf("golden trace invalid: %v", err)
	}
	return tr
}

func encodeGolden(t *testing.T, tr *trace.Trace) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := trace.Encode(&buf, tr); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// goldenInputs returns the pristine encodings plus damaged variants for
// every trace- and stream-level fault class of internal/faults (reader
// faults damage the act of reading, not the bytes, and are left out).
func goldenInputs(t *testing.T) (names []string, inputs map[string][]byte) {
	t.Helper()
	inputs = make(map[string][]byte)
	add := func(name string, data []byte) {
		names = append(names, name)
		inputs[name] = data
	}
	specs := []string{
		"drop=0.2", "killrank=0.3", "truncate=0.5", "skew=200us", "wrap=20",
		"dup=0.05", "reorder=0.05", "zero=0.05", "garble=0.05",
		"chop=0.3", "chop=0.9", "corrupt=0.0002", "corrupt=0.001", "corrupt=0.01",
		"drop=0.1,reorder=0.02,chop=0.4",
	}
	for _, seed := range []uint64{42, 43} {
		app := fmt.Sprintf("golden%d", seed)
		base := goldenTrace(t, seed)
		pristine := encodeGolden(t, base)
		add(app+"/pristine", pristine)
		for _, spec := range specs {
			for _, fseed := range []uint64{1, 2, 3} {
				c, err := faults.Parse(spec, fseed)
				if err != nil {
					t.Fatal(err)
				}
				tr := base.Clone()
				c.ApplyTrace(tr)
				add(fmt.Sprintf("%s/%s/seed%d", app, spec, fseed), c.ApplyStream(encodeGolden(t, tr)))
			}
		}
	}
	// Damage the fault classes rarely reach: cuts inside the header and the
	// first section, and samples referencing stacks the table never defined.
	pristine := inputs["golden42/pristine"]
	for _, cut := range []int{3, 30, 120, 290, 300, 400} {
		add(fmt.Sprintf("golden42/cut%d", cut), pristine[:cut])
	}
	dangling := goldenTrace(t, 42)
	for i := range dangling.Ranks[1].Samples {
		if i%5 == 0 {
			dangling.Ranks[1].Samples[i].Stack = 999
		}
	}
	add("golden42/dangling", encodeGolden(t, dangling))
	return names, inputs
}

// recordHasher writes records in a canonical text form, resolving sample
// stacks to their frames.
type recordHasher struct{ h hash.Hash }

func (rh recordHasher) events(es []trace.Event) {
	for _, e := range es {
		fmt.Fprintf(rh.h, "E %d %d %d %d %d %v\n", e.Time, e.Rank, e.Type, e.Value, e.Group, e.Counters)
	}
}

func (rh recordHasher) samples(ss []trace.Sample, stacks *callstack.Interner) {
	for _, s := range ss {
		st, ok := stacks.Get(s.Stack)
		fmt.Fprintf(rh.h, "S %d %d %d %v %v %v\n", s.Time, s.Rank, s.Group, s.Counters, ok, st)
	}
}

func (rh recordHasher) err(err error) {
	if err != nil {
		fmt.Fprintf(rh.h, "err %q\n", err.Error())
	}
}

func (rh recordHasher) report(rep *trace.SalvageReport) {
	if rep == nil {
		fmt.Fprintln(rh.h, "report nil")
		return
	}
	fmt.Fprintf(rh.h, "report %d %d %d\n", rep.Events, rep.Samples, rep.RanksLost)
	rh.err(rep.Err)
	for _, p := range rep.Problems {
		fmt.Fprintf(rh.h, "problem %d %s %d %q\n", p.Rank, p.Kind, p.Count, p.Detail)
	}
}

func (rh recordHasher) sum() string { return hex.EncodeToString(rh.h.Sum(nil)) }

func decodeDigest(data []byte, opt trace.DecodeOptions) string {
	rh := recordHasher{sha256.New()}
	tr, rep, err := trace.Decode(context.Background(), bytes.NewReader(data), opt)
	rh.err(err)
	if tr != nil {
		fmt.Fprintf(rh.h, "trace %q %d\n", tr.AppName, tr.NumRanks())
		for _, rd := range tr.Ranks {
			rh.events(rd.Events)
			rh.samples(rd.Samples, tr.Stacks)
		}
	}
	rh.report(rep)
	return rh.sum()
}

func chunkDigest(data []byte, opt trace.DecodeOptions, limit int) string {
	rh := recordHasher{sha256.New()}
	cr, err := trace.NewChunkReader(context.Background(), bytes.NewReader(data), opt)
	rh.err(err)
	if err != nil {
		return rh.sum()
	}
	fmt.Fprintf(rh.h, "header %q %d\n", cr.App(), cr.NumRanks())
	for {
		c, err := cr.Next(limit)
		if err != nil {
			if err != io.EOF {
				rh.err(err)
			}
			break
		}
		fmt.Fprintf(rh.h, "chunk %d\n", c.Rank)
		rh.events(c.Events)
		rh.samples(c.Samples, cr.Stacks())
	}
	rh.report(cr.Report())
	return rh.sum()
}

// TestDecodeMatchesGolden compares every reader configuration over every
// golden input with the pinned digests.
func TestDecodeMatchesGolden(t *testing.T) {
	names, inputs := goldenInputs(t)
	got := make(map[string]string)
	for _, name := range names {
		data := inputs[name]
		for _, salvage := range []bool{false, true} {
			mode := "strict"
			if salvage {
				mode = "salvage"
			}
			for _, p := range []int{1, 2, 4} {
				opt := trace.DecodeOptions{Salvage: salvage, Exec: exec.Exec{Parallelism: p}}
				got[fmt.Sprintf("%s/decode/%s/p%d", name, mode, p)] = decodeDigest(data, opt)
			}
			for _, limit := range []int{1, 7, 4096} {
				opt := trace.DecodeOptions{Salvage: salvage}
				got[fmt.Sprintf("%s/chunks/%s/limit%d", name, mode, limit)] = chunkDigest(data, opt, limit)
			}
		}
	}
	if *updateDecodeGolden {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(decodeGoldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(decodeGoldenPath, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(decodeGoldenPath)
	if err != nil {
		t.Fatal(err)
	}
	var want map[string]string
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	keys := make([]string, 0, len(want))
	for k := range want {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	if len(got) != len(want) {
		t.Errorf("%d digests, golden has %d", len(got), len(want))
	}
	for _, k := range keys {
		if got[k] != want[k] {
			t.Errorf("%s: digest %s, golden %s", k, got[k], want[k])
		}
	}
}
