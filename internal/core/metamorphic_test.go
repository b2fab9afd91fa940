package core

import (
	"context"
	"fmt"
	"slices"
	"strings"
	"sync"
	"testing"

	"phasefold/internal/faults"
	"phasefold/internal/sim"
	"phasefold/internal/simapp"
	"phasefold/internal/trace"
)

// metamorphicTraces are the inputs of the metamorphic tests: every
// simulated app at three seeds, 4 ranks × 120 iterations, generated once.
var metamorphicTraces = sync.OnceValues(func() ([]*trace.Trace, error) {
	var out []*trace.Trace
	for _, name := range []string{"multiphase", "cg", "stencil", "nbody", "amr"} {
		app, err := simapp.NewApp(name)
		if err != nil {
			return nil, err
		}
		for seed := uint64(1); seed <= 3; seed++ {
			run, err := RunApp(app, simapp.Config{Ranks: 4, Iterations: 120, Seed: seed, FreqGHz: 2}, DefaultOptions())
			if err != nil {
				return nil, err
			}
			out = append(out, run.Trace)
		}
	}
	return out, nil
})

// modelView prints everything a metamorphic relation constrains, floats at
// %.17g so equal views mean == values: the totals, every cluster's
// statistics, quality, breakpoints and phases (bounds, rates, metrics,
// source) in triage order with its member bursts, the noise bursts, and
// the diagnostics. Cluster labels, diagnostic messages that name ranks,
// the mean IPC (a float sum in burst order, which renumbering ranks
// reorders) and the SPMD score (the tests compare it themselves) are left
// out. Each burst's rank is mapped through rank and its times moved back
// by shift, so a model of a transformed trace can be printed in the
// original's terms.
func modelView(m *Model, rank func(int32) int32, shift sim.Time) []string {
	g := func(v float64) string { return fmt.Sprintf("%.17g", v) }
	members := func(label int) string {
		var keys []string
		for _, b := range m.Bursts {
			if b.Cluster == label {
				keys = append(keys, fmt.Sprintf("r%d:%d-%d:i%d:g%d:n%d", rank(b.Rank), b.Start-shift, b.End-shift, b.Iter, b.Region, b.NumSmp))
			}
		}
		slices.Sort(keys)
		return strings.Join(keys, " ")
	}
	out := []string{fmt.Sprintf("bursts=%d clusters=%d noise=%d total=%d [%s]",
		m.NumBursts, m.NumClusters, m.NoiseBursts, m.TotalComputation, members(-1))}
	for _, c := range m.Clusters {
		st := c.Stat
		var b strings.Builder
		fmt.Fprintf(&b, "size=%d region=%d dur=%d/%d/%d total=%d instr=%d quality=%s(%s)",
			st.Size, st.Region, st.MeanDur, st.MedianDur, st.StddevDur, st.TotalTime, st.MedianInstr, c.Quality, c.QualityReason)
		if c.Fit != nil {
			b.WriteString(" breakpoints=")
			for _, x := range c.Fit.Breakpoints {
				b.WriteString(g(x) + ",")
			}
			b.WriteString(" sse=" + g(c.Fit.SSE))
		}
		for _, p := range c.Phases {
			fmt.Fprintf(&b, " phase[%s,%s] dur=%d src=%q", g(p.X0), g(p.X1), p.Duration, p.Source)
			for i, v := range p.Rates {
				if p.RatesOK[i] {
					b.WriteString(" r" + g(v))
				}
			}
			for i, v := range p.Metrics {
				if p.MetricsOK[i] {
					b.WriteString(" m" + g(v))
				}
			}
		}
		out = append(out, b.String(), members(c.Label))
	}
	var diags []string
	for _, d := range m.Diagnostics {
		r := d.Rank
		if r >= 0 {
			r = int(rank(int32(r)))
		}
		diags = append(diags, fmt.Sprintf("%s/%s/%s rank %d", d.Stage, d.Kind, d.Severity, r))
	}
	slices.Sort(diags)
	return append(out, diags...)
}

// mustSameView fails unless the two views are equal, naming the first line
// that differs.
func mustSameView(t *testing.T, name string, want, got []string) {
	t.Helper()
	for i := range max(len(want), len(got)) {
		if i >= len(want) || i >= len(got) || want[i] != got[i] {
			var w, g string
			if i < len(want) {
				w = want[i]
			}
			if i < len(got) {
				g = got[i]
			}
			t.Fatalf("%s: line %d differs\nwant %s\ngot  %s", name, i, w, g)
		}
	}
}

func identityRank(r int32) int32 { return r }

// TestAnalyzeRankPermutationPermutesClusters: SPMD ranks are
// exchangeable, so renumbering them must renumber the clusters' bursts and
// change nothing else — on pristine traces, and on damaged ones whose
// faults were injected before the renumbering (the repairs are per rank).
func TestAnalyzeRankPermutationPermutesClusters(t *testing.T) {
	traces, err := metamorphicTraces()
	if err != nil {
		t.Fatal(err)
	}
	perm := []int32{2, 0, 3, 1} // old rank r becomes rank perm[r]
	inv := make([]int32, len(perm))
	for r, p := range perm {
		inv[p] = int32(r)
	}
	permute := func(tr *trace.Trace) *trace.Trace {
		out := &trace.Trace{AppName: tr.AppName, Symbols: tr.Symbols, Stacks: tr.Stacks, Ranks: make([]*trace.RankData, len(tr.Ranks))}
		for r, rd := range tr.Ranks {
			p := perm[r]
			c := &trace.RankData{Rank: p, Events: slices.Clone(rd.Events), Samples: slices.Clone(rd.Samples)}
			for i := range c.Events {
				c.Events[i].Rank = p
			}
			for i := range c.Samples {
				c.Samples[i].Rank = p
			}
			out.Ranks[p] = c
		}
		return out
	}
	chain, err := faults.Parse("garble=0.05", 1)
	if err != nil {
		t.Fatal(err)
	}
	for i, tr := range traces {
		damaged := tr.Clone()
		chain.ApplyTrace(damaged)
		for _, in := range []struct {
			name string
			tr   *trace.Trace
		}{{"pristine", tr}, {"garble=0.05", damaged}} {
			name := fmt.Sprintf("%s/%d/%s", tr.AppName, i%3+1, in.name)
			want, err := Analyze(context.Background(), in.tr, DefaultOptions())
			if err != nil {
				t.Fatal(err)
			}
			got, err := Analyze(context.Background(), permute(in.tr), DefaultOptions())
			if err != nil {
				t.Fatal(err)
			}
			// The SPMD score aligns the ranks' cluster sequences in rank
			// order, so it is exchangeable only while they agree.
			if in.tr == tr && want.SPMDScore != got.SPMDScore {
				t.Fatalf("%s: SPMD score %.17g, renumbered %.17g", name, want.SPMDScore, got.SPMDScore)
			}
			mustSameView(t, name, modelView(want, identityRank, 0), modelView(got, func(r int32) int32 { return inv[r] }, 0))
		}
	}
}

// TestAnalyzeTimeShiftInvariant: moving every record of a trace by the same
// offset must leave the model unchanged, apart from the bursts' times moving
// by that offset.
func TestAnalyzeTimeShiftInvariant(t *testing.T) {
	traces, err := metamorphicTraces()
	if err != nil {
		t.Fatal(err)
	}
	const shift = sim.Time(1_000_000_007)
	for i, tr := range traces {
		moved := tr.Clone()
		for _, rd := range moved.Ranks {
			for j := range rd.Events {
				rd.Events[j].Time += shift
			}
			for j := range rd.Samples {
				rd.Samples[j].Time += shift
			}
		}
		want, err := Analyze(context.Background(), tr, DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		got, err := Analyze(context.Background(), moved, DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		name := fmt.Sprintf("%s/%d", tr.AppName, i%3+1)
		if want.SPMDScore != got.SPMDScore {
			t.Fatalf("%s: SPMD score %.17g, shifted %.17g", name, want.SPMDScore, got.SPMDScore)
		}
		mustSameView(t, name, modelView(want, identityRank, 0), modelView(got, identityRank, shift))
	}
}
