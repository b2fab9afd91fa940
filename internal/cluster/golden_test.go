package cluster_test

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"testing"

	"phasefold/internal/cluster"
	"phasefold/internal/core"
	"phasefold/internal/obs"
	"phasefold/internal/simapp"
	"phasefold/internal/trace"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/labels_golden.json from the current implementation")

// goldenPath pins the clustering of a simapp ladder: the file was written
// by the uniform-grid DBSCAN that preceded the cell index, so the test
// proves the cell index reproduces its labels and work counters exactly.
// Regenerate (-update) only when labels are meant to change.
const goldenPath = "testdata/labels_golden.json"

// goldenEntry is one fixture's pinned result: SHA-256 digests of the
// Refine labels and of plain DBSCAN's labels, plus the work counters each
// run reported.
type goldenEntry struct {
	Fixture          string `json:"fixture"`
	Points           int    `json:"points"`
	Refine           string `json:"refine_sha256"`
	RefineRounds     int64  `json:"refine_rounds"`
	RefineExpansions int64  `json:"refine_dbscan_expansions"`
	DBSCAN           string `json:"dbscan_sha256"`
	DBSCANExpansions int64  `json:"dbscan_expansions"`
}

// goldenPoints simulates app on 4 ranks and returns the normalized default
// feature points of its valid bursts, exactly as the analysis pipeline
// feeds them to structure detection.
func goldenPoints(t *testing.T, app string, iters int, seed uint64) []cluster.Point {
	t.Helper()
	a, err := simapp.NewApp(app)
	if err != nil {
		t.Fatal(err)
	}
	opt := core.DefaultOptions()
	run, err := core.RunApp(a, simapp.Config{Ranks: 4, Iterations: iters, Seed: seed, FreqGHz: 2}, opt)
	if err != nil {
		t.Fatal(err)
	}
	bursts, err := trace.ExtractBursts(run.Trace, trace.BurstOptions{MinDuration: opt.MinBurstDuration})
	if err != nil {
		t.Fatal(err)
	}
	trace.SortBursts(bursts)
	pts, valid := cluster.Extract(bursts, opt.Features)
	cluster.Normalize(pts, valid, cluster.MinSpans(opt.Features))
	var sub []cluster.Point
	for i, p := range pts {
		if valid[i] {
			sub = append(sub, p)
		}
	}
	return sub
}

func labelDigest(labels []int) string {
	h := sha256.New()
	for _, l := range labels {
		h.Write(strconv.AppendInt(nil, int64(l), 10))
		h.Write([]byte{','})
	}
	return hex.EncodeToString(h.Sum(nil))
}

func counter(reg *obs.Registry, name string) int64 {
	return reg.Counter(name, "").Value()
}

func goldenEntryFor(t *testing.T, app string, iters int, seed uint64) goldenEntry {
	pts := goldenPoints(t, app, iters, seed)
	e := goldenEntry{Fixture: fmt.Sprintf("%s/%d/seed=%d", app, iters, seed), Points: len(pts)}

	reg := obs.NewRegistry()
	ctx := obs.WithMetrics(context.Background(), reg)
	labels, err := cluster.RefineContext(ctx, pts, cluster.DefaultRefineOptions())
	if err != nil {
		t.Fatal(err)
	}
	e.Refine = labelDigest(labels)
	e.RefineRounds = counter(reg, obs.MetricRefineRounds)
	e.RefineExpansions = counter(reg, obs.MetricDBSCANExpansions)

	reg = obs.NewRegistry()
	ctx = obs.WithMetrics(context.Background(), reg)
	labels, err = cluster.DBSCANContext(ctx, pts, core.DefaultOptions().DBSCAN)
	if err != nil {
		t.Fatal(err)
	}
	e.DBSCAN = labelDigest(labels)
	e.DBSCANExpansions = counter(reg, obs.MetricDBSCANExpansions)
	return e
}

// TestLabelsMatchGolden re-clusters a simapp ladder — all five apps at
// 20/100/400 iterations, three seeds, four ranks — and compares Refine and
// DBSCAN labels, refinement rounds and DBSCAN expansions with the pinned
// golden.
func TestLabelsMatchGolden(t *testing.T) {
	var got []goldenEntry
	for _, app := range []string{"multiphase", "cg", "stencil", "nbody", "amr"} {
		for _, iters := range []int{20, 100, 400} {
			for _, seed := range []uint64{1, 7, 42} {
				got = append(got, goldenEntryFor(t, app, iters, seed))
			}
		}
	}
	if *updateGolden {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	var want []goldenEntry
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("%d fixtures, golden has %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("fixture %s:\n got %+v\nwant %+v", want[i].Fixture, got[i], want[i])
		}
	}
}
