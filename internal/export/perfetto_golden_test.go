package export

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"phasefold/internal/callstack"
	"phasefold/internal/core"
	"phasefold/internal/faults"
	"phasefold/internal/sim"
	"phasefold/internal/simapp"
	"phasefold/internal/trace"
)

var updatePerfettoGolden = flag.Bool("update", false, "rewrite testdata/perfetto_golden.json from the current WritePerfetto")

// perfettoGoldenPath pins the length and sha256 of WritePerfetto's output
// over a corpus of views. It was written by the encoding/json writer that
// the append-style writer replaced, so it proves the rewrite kept every
// byte. Regenerate (-update) only from a commit whose writer is known good,
// never to make a failing comparison pass.
const perfettoGoldenPath = "testdata/perfetto_golden.json"

type perfettoDigest struct {
	Bytes  int    `json:"bytes"`
	SHA256 string `json:"sha256"`
}

// goldenApps are the base simulated applications, each analyzed at two
// seeds on 4 ranks × 100 iterations.
var goldenApps = []string{"amr", "cg", "multiphase", "nbody", "stencil"}

// goldenFaultSpecs damage one multiphase trace once per internal/faults
// trace- and stream-level class; the damaged bytes are salvage-decoded and
// analyzed leniently, so the views carry diagnostics and partial clusters.
var goldenFaultSpecs = []string{
	"drop=0.2", "killrank=0.3", "truncate=0.5", "skew=200us", "wrap=20",
	"dup=0.05", "reorder=0.05", "zero=0.05", "garble=0.05", "chop=0.3",
	"corrupt=0.001",
}

func goldenConfig(seed uint64) simapp.Config {
	cfg := simapp.DefaultConfig()
	cfg.Ranks, cfg.Iterations, cfg.Seed = 4, 100, seed
	return cfg
}

// perfettoCorpus returns every view the golden and the oracle comparison
// cover, by case name.
func perfettoCorpus(t testing.TB) (names []string, views map[string]*core.ExportView) {
	t.Helper()
	views = make(map[string]*core.ExportView)
	add := func(name string, v *core.ExportView) {
		names = append(names, name)
		views[name] = v
	}
	ctx := context.Background()
	for _, name := range goldenApps {
		for _, seed := range []uint64{1, 2} {
			app, err := simapp.NewApp(name)
			if err != nil {
				t.Fatal(err)
			}
			m, run, err := core.AnalyzeApp(ctx, app, goldenConfig(seed), core.DefaultOptions())
			if err != nil {
				t.Fatalf("%s seed %d: %v", name, seed, err)
			}
			add(fmt.Sprintf("app/%s/seed%d", name, seed), m.Export(run.Trace))
		}
	}

	app, err := simapp.NewApp("multiphase")
	if err != nil {
		t.Fatal(err)
	}
	base, err := core.RunApp(app, goldenConfig(3), core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	for _, spec := range goldenFaultSpecs {
		c, err := faults.Parse(spec, 1)
		if err != nil {
			t.Fatal(err)
		}
		tr := canonicalStacks(base.Trace)
		c.ApplyTrace(tr)
		var buf bytes.Buffer
		if err := trace.Encode(&buf, tr); err != nil {
			t.Fatal(err)
		}
		dec, _, err := trace.Decode(ctx, bytes.NewReader(c.ApplyStream(buf.Bytes())), trace.DecodeOptions{Salvage: true})
		if err != nil {
			t.Fatalf("%s: salvage decode: %v", spec, err)
		}
		m, err := core.Analyze(ctx, dec, core.DefaultOptions())
		if err != nil {
			t.Fatalf("%s: analyze: %v", spec, err)
		}
		add("fault/"+spec, m.Export(dec))
	}

	add("fixture/multiphase", fixture(t))
	add("fixture/synthetic", syntheticView())
	for _, h := range hostileViews() {
		add("synthetic/"+h.name, h.view)
	}
	return names, views
}

// canonicalStacks returns a copy of tr whose stack table holds each
// distinct stack once, numbered in (rank, sample) order of first use.
// Simulated runs leave a run-dependent table (the interner hashes Frame's
// padding bytes, so equal stacks can land under two identifiers), and the
// encoded table decides which records a stream fault lands on.
func canonicalStacks(tr *trace.Trace) *trace.Trace {
	out := tr.Clone()
	out.Stacks = callstack.NewInterner()
	ids := make(map[string]callstack.StackID)
	for _, rd := range out.Ranks {
		if rd == nil {
			continue
		}
		for i := range rd.Samples {
			s, ok := tr.Stacks.Get(rd.Samples[i].Stack)
			if !ok {
				continue
			}
			key := fmt.Sprint(s)
			id, seen := ids[key]
			if !seen {
				id = out.Stacks.Intern(s)
				ids[key] = id
			}
			rd.Samples[i].Stack = id
		}
	}
	return out
}

// hostileStrings exercise every escaping path of the JSON encoder: HTML
// characters, quotes and backslashes, the short and \u00XX control escapes,
// invalid UTF-8, the JavaScript line separators, and plain non-ASCII.
var hostileStrings = []string{
	`<script>&amp;</script>`,
	"a<b", "a>b", "a&b", `a"b`, `a\b`,
	`say "hi" \ bye`,
	"\b\f\n\r\t",
	"\x01\x1f\x7f",
	"bad \xff\xfe utf8",
	"sep \u2028 and \u2029",
	"é 日本 🙂",
	"",
}

type namedView struct {
	name string
	view *core.ExportView
}

// hostileViews are hand-built views for the corners the simulated corpus
// never reaches: hostile strings in every string field, noise and
// zero-duration bursts, negative zero, timestamps that switch the float
// encoder to exponent form (at or above 1e21 and below 1e-6), and exact
// (pid, tid, ts) ties that only a stable sort orders deterministically.
func hostileViews() []namedView {
	var out []namedView
	for i, s := range hostileStrings {
		out = append(out, namedView{fmt.Sprintf("strings%d", i), &core.ExportView{
			App:   s,
			Ranks: 2,
			Clusters: []core.ExportCluster{{
				Label: 0, Region: 7, RepDuration: 1000,
				Phases: []core.ExportPhase{
					{Index: 0, X0: 0, X1: 0.5, Source: s, Share: 0.25},
					{Index: 1, X0: 0.5, X1: 1, Source: s + s, Share: 0.999},
				},
			}},
			Bursts: []core.ExportBurst{
				{Rank: 0, Start: 10, End: 2010, Cluster: 0, Region: 7, Iter: 1},
				{Rank: 1, Start: 15, End: 1015, Cluster: 0, Region: 7},
			},
			Diagnostics: []core.ExportDiag{{Severity: s, Stage: s, Message: s}},
		}})
	}
	negZero := math.Copysign(0, -1)
	out = append(out,
		namedView{"noise_and_zero_duration", &core.ExportView{
			App:   "edge",
			Ranks: 1,
			Clusters: []core.ExportCluster{
				{Label: 3, Region: 2, RepDuration: 500, Phases: []core.ExportPhase{
					{Index: 0, X0: 0, X1: 0.4},
					{Index: 1, X0: 0.4, X1: 1, Share: 0.004, Source: "tiny"},
				}},
				{Label: 4, Region: 9, RepDuration: 1234567},
				{Label: 5, Region: 10},
			},
			Bursts: []core.ExportBurst{
				{Rank: 0, Start: 0, End: 0, Cluster: -1},
				{Rank: 0, Start: 5, End: 5, Cluster: 3, Region: 2, Iter: -4},
				{Rank: 0, Start: 7, End: 1007, Cluster: -1, Region: 1},
				{Rank: 0, Start: 1007, End: 999999999, Cluster: 4, Region: 9, Iter: 9},
				{Rank: 0, Start: 2000000000, End: 2000000003, Cluster: 5, Region: 10},
			},
		}},
		namedView{"negative_zero_and_exponents", &core.ExportView{
			App:   "floats",
			Ranks: 1,
			Clusters: []core.ExportCluster{
				{Label: 0, RepDuration: 1, Phases: []core.ExportPhase{
					{Index: 0, X0: negZero, X1: 1e-12},
					{Index: 1, X0: 1e-12, X1: 3e-9},
					{Index: 2, X0: 3e-9, X1: 5e-4},
					{Index: 3, X0: 5e-4, X1: 0.5},
				}},
				{Label: 1, RepDuration: 1000, Phases: []core.ExportPhase{
					{Index: 0, X0: negZero, X1: 1e20},
					{Index: 1, X0: 1e20, X1: 1e21},
					{Index: 2, X0: 1e21, X1: 1.5e24},
					{Index: 3, X0: 1.5e24, X1: math.MaxFloat64 / 1e4},
				}},
				{Label: 2, RepDuration: math.MaxInt64, Phases: []core.ExportPhase{
					{Index: 0, X0: -1, X1: 1, Share: math.SmallestNonzeroFloat64, Source: "denormal"},
				}},
			},
			Bursts: []core.ExportBurst{
				{Rank: 0, Start: 1, End: 2, Cluster: 0},
				{Rank: 0, Start: math.MaxInt64 - 1, End: math.MaxInt64, Cluster: 1},
				{Rank: 0, Start: -5, End: 3, Cluster: 2},
			},
		}},
		namedView{"ties", &core.ExportView{
			App:   "ties",
			Ranks: 2,
			Clusters: []core.ExportCluster{
				{Label: 1, RepDuration: 100, Phases: []core.ExportPhase{
					{Index: 0, X0: 0, X1: 0}, {Index: 1, X0: 0, X1: 0}, {Index: 2, X0: 0, X1: 1},
				}},
				{Label: 1, RepDuration: 100},
				{Label: 2, RepDuration: 100},
			},
			Bursts: []core.ExportBurst{
				{Rank: 1, Start: 100, End: 200, Cluster: 2, Iter: 1},
				{Rank: 1, Start: 100, End: 200, Cluster: 2, Iter: 2},
				{Rank: 1, Start: 100, End: 300, Cluster: -1, Iter: 3},
				{Rank: 0, Start: 100, End: 200, Cluster: 1, Iter: 4},
				{Rank: 0, Start: 100, End: 200, Cluster: 1, Iter: 5},
				{Rank: 0, Start: 50, End: 200, Cluster: 1, Iter: 6},
			},
			Diagnostics: []core.ExportDiag{
				{Severity: "warn", Stage: "a", Message: "first"},
				{Severity: "warn", Stage: "a", Message: "second"},
			},
		}},
		namedView{"empty", &core.ExportView{}},
	)
	return out
}

func digestOf(b []byte) perfettoDigest {
	sum := sha256.Sum256(b)
	return perfettoDigest{Bytes: len(b), SHA256: hex.EncodeToString(sum[:])}
}

// TestWritePerfettoMatchesGolden renders every corpus view and compares the
// bytes with the pinned digests.
func TestWritePerfettoMatchesGolden(t *testing.T) {
	names, views := perfettoCorpus(t)
	got := make(map[string]perfettoDigest, len(names))
	for _, name := range names {
		var buf bytes.Buffer
		if err := WritePerfetto(&buf, views[name]); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got[name] = digestOf(buf.Bytes())
	}
	if *updatePerfettoGolden {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(perfettoGoldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(perfettoGoldenPath, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(perfettoGoldenPath)
	if err != nil {
		t.Fatal(err)
	}
	var want map[string]perfettoDigest
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Errorf("%d cases, golden has %d", len(got), len(want))
	}
	keys := make([]string, 0, len(want))
	for k := range want {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		if g, ok := got[k]; !ok {
			t.Errorf("%s: missing from the corpus", k)
		} else if g != want[k] {
			t.Errorf("%s: %d bytes sha256 %s, golden %d bytes sha256 %s",
				k, g.Bytes, g.SHA256, want[k].Bytes, want[k].SHA256)
		}
	}
}

// nonFiniteViews place NaN or ±Inf where the writer turns them into event
// timestamps or durations.
func nonFiniteViews() []namedView {
	var out []namedView
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		for _, x1 := range []bool{false, true} {
			p := core.ExportPhase{X0: 0, X1: 1}
			if x1 {
				p.X1 = bad
			} else {
				p.X0 = bad
			}
			out = append(out, namedView{fmt.Sprintf("%v/x1=%v", bad, x1), &core.ExportView{
				App: "bad", Ranks: 1,
				Clusters: []core.ExportCluster{{Label: 0, RepDuration: 10, Phases: []core.ExportPhase{p}}},
				Bursts:   []core.ExportBurst{{Rank: 0, Start: 0, End: sim.Time(10), Cluster: 0}},
			}})
		}
	}
	return out
}

// TestWritePerfettoNonFinite: a NaN or infinite breakpoint is an error from
// the oracle and from WritePerfetto, and WritePerfetto writes nothing.
func TestWritePerfettoNonFinite(t *testing.T) {
	for _, c := range nonFiniteViews() {
		var want, got bytes.Buffer
		if err := oraclePerfetto(&want, c.view); err == nil {
			t.Errorf("%s: oracle accepted a non-finite value", c.name)
		}
		if err := WritePerfetto(&got, c.view); err == nil {
			t.Errorf("%s: WritePerfetto accepted a non-finite value", c.name)
		}
		if got.Len() != 0 {
			t.Errorf("%s: WritePerfetto wrote %d bytes before failing", c.name, got.Len())
		}
	}
}
