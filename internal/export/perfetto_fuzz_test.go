package export

import (
	"bytes"
	"math"
	"testing"

	"phasefold/internal/core"
	"phasefold/internal/sim"
)

// checkAgainstOracle renders v with WritePerfetto and with the
// encoding/json oracle and requires the same bytes and the same error
// status; a failing WritePerfetto must have written nothing.
func checkAgainstOracle(t *testing.T, name string, v *core.ExportView) {
	t.Helper()
	var want, got bytes.Buffer
	werr := oraclePerfetto(&want, v)
	gerr := WritePerfetto(&got, v)
	if (werr == nil) != (gerr == nil) {
		t.Fatalf("%s: oracle error %v, WritePerfetto error %v", name, werr, gerr)
	}
	if gerr != nil {
		if got.Len() != 0 {
			t.Fatalf("%s: WritePerfetto wrote %d bytes before failing", name, got.Len())
		}
		return
	}
	if !bytes.Equal(want.Bytes(), got.Bytes()) {
		w, g := want.Bytes(), got.Bytes()
		i := 0
		for i < len(w) && i < len(g) && w[i] == g[i] {
			i++
		}
		lo := max(i-80, 0)
		t.Fatalf("%s: bytes differ at offset %d (oracle %d bytes, got %d)\noracle: %q\ngot:    %q",
			name, i, len(w), len(g), w[lo:min(i+80, len(w))], g[lo:min(i+80, len(g))])
	}
}

// TestWritePerfettoMatchesOracle holds WritePerfetto to the encoding/json
// oracle over the whole golden corpus and the non-finite views.
func TestWritePerfettoMatchesOracle(t *testing.T) {
	names, views := perfettoCorpus(t)
	for _, name := range names {
		checkAgainstOracle(t, name, views[name])
	}
	for _, c := range nonFiniteViews() {
		checkAgainstOracle(t, c.name, c.view)
	}
}

// FuzzPerfetto builds a small view from the input (strings in every string
// field, raw float bits for the breakpoints and share, arbitrary burst
// bounds, duplicate or negative cluster labels, fitted and unfitted
// clusters) and requires WritePerfetto
// to match the oracle byte for byte, errors included. Seeded from
// testdata/fuzz/FuzzPerfetto.
func FuzzPerfetto(f *testing.F) {
	f.Add("app", "solver.c:12", "warn", math.Float64bits(0.25), math.Float64bits(1), math.Float64bits(0.5),
		int64(1000), int64(5000), int64(3), 0, 1, uint8(2))
	f.Fuzz(func(t *testing.T, app, source, diag string, x0Bits, x1Bits, shareBits uint64,
		start, end, iter int64, labelA, labelB int, ranks uint8) {
		x0, x1 := math.Float64frombits(x0Bits), math.Float64frombits(x1Bits)
		t0, t1 := sim.Time(start), sim.Time(end)
		v := &core.ExportView{
			App:   app,
			Ranks: int(ranks % 5),
			Clusters: []core.ExportCluster{
				{Label: labelA, Region: iter, RepDuration: t1 - t0, Phases: []core.ExportPhase{
					{Index: 0, X0: 0, X1: x0},
					{Index: 1, X0: x0, X1: x1, Source: source, Share: math.Float64frombits(shareBits)},
				}},
				{Label: labelB, Region: -iter, RepDuration: t0, Phases: []core.ExportPhase{
					{Index: 2, X0: x1, X1: 1},
				}},
				{Label: labelB, Region: iter, RepDuration: t1},
			},
			Bursts: []core.ExportBurst{
				{Rank: int32(ranks % 3), Start: t0, End: t1, Cluster: labelA, Region: iter, Iter: iter},
				{Rank: 0, Start: t0, End: t1, Cluster: labelB, Iter: -iter},
				{Rank: 0, Start: t1, End: t0, Cluster: -1},
				{Rank: int32(ranks % 3), Start: t0, End: t0, Cluster: labelA},
			},
			Diagnostics: []core.ExportDiag{
				{Severity: diag, Stage: source, Message: app},
				{Severity: diag, Stage: diag, Message: source},
			},
		}
		checkAgainstOracle(t, "fuzz", v)
	})
}
