package experiments

import (
	"context"
	"fmt"
	"strings"
	"testing"
)

// runExp executes one experiment and applies the shared sanity checks.
func runExp(t *testing.T, id string) *Result {
	t.Helper()
	r, err := ByID(id)
	if err != nil {
		t.Fatal(err)
	}
	res, err := r.Run(context.Background())
	if err != nil {
		t.Fatalf("%s: %v", id, err)
	}
	if res.ID != id {
		t.Fatalf("result id %q, want %q", res.ID, id)
	}
	if len(res.Tables) == 0 && len(res.Plots) == 0 {
		t.Fatalf("%s produced no artefacts", id)
	}
	for _, tb := range res.Tables {
		if tb.NumRows() == 0 {
			t.Fatalf("%s has an empty table %q", id, tb.Title)
		}
		if !strings.Contains(tb.String(), "==") {
			t.Fatalf("%s table renders empty", id)
		}
	}
	return res
}

func TestF1HeadlineClaims(t *testing.T) {
	res := runExp(t, "F1")
	if got := res.Metrics["phases_detected"]; got != res.Metrics["phases_true"] {
		t.Errorf("detected %v phases, want %v", got, res.Metrics["phases_true"])
	}
	if got := res.Metrics["profile_rel_mae"]; got > 0.05 {
		t.Errorf("profile error %.3f exceeds the 5%% claim", got)
	}
	if got := res.Metrics["breakpoint_f1"]; got < 1 {
		t.Errorf("breakpoint F1 %v", got)
	}
}

func TestF2ErrorDecreasesWithIterations(t *testing.T) {
	res := runExp(t, "F2")
	few := res.Metrics["rel_mae_iters_25"]
	many := res.Metrics["rel_mae_iters_1000"]
	if many >= few {
		t.Errorf("error did not shrink with folds: 25 iters %.4f vs 1000 iters %.4f", few, many)
	}
	if many > 0.05 {
		t.Errorf("converged error %.4f above 5%%", many)
	}
}

func TestF3CoarseMatchesFine(t *testing.T) {
	res := runExp(t, "F3")
	// The ICPP'11 claim: coarse folding within 5% of fine-grain results.
	if got := res.Metrics["rel_mae_vs_fine_p1000us"]; got > 0.05 {
		t.Errorf("1 ms folding differs from fine by %.3f (> 5%%)", got)
	}
	if got := res.Metrics["rel_mae_vs_fine_p4000us"]; got > 0.08 {
		t.Errorf("4 ms folding differs from fine by %.3f", got)
	}
}

func TestT1AccuracyBounds(t *testing.T) {
	res := runExp(t, "T1")
	if got := res.Metrics["best_f1"]; got < 1 {
		t.Errorf("best configuration F1 %v, want 1", got)
	}
}

func TestT2OverheadOrdering(t *testing.T) {
	res := runExp(t, "T2")
	coarse := res.Metrics["overhead_pct_coarse"]
	fine := res.Metrics["overhead_pct_fine"]
	if coarse <= 0 || fine <= 0 {
		t.Fatalf("overheads not measured: %v / %v", coarse, fine)
	}
	if fine < 2*coarse {
		t.Errorf("fine-grain overhead %.3f%% not clearly above coarse %.3f%%", fine, coarse)
	}
}

func TestT3RefinementNotWorse(t *testing.T) {
	res := runExp(t, "T3")
	// On the imbalanced AMR workload the refinement must match the true
	// region count at least as well as single-eps DBSCAN.
	trueK := 2.0
	db := res.Metrics["amr_dbscan_clusters"]
	rf := res.Metrics["amr_refinement_clusters"]
	dbErr := db - trueK
	if dbErr < 0 {
		dbErr = -dbErr
	}
	rfErr := rf - trueK
	if rfErr < 0 {
		rfErr = -rfErr
	}
	if rfErr > dbErr {
		t.Errorf("refinement (%v clusters) worse than DBSCAN (%v) on amr, true %v", rf, db, trueK)
	}
	if got := res.Metrics["cg_refinement_spmd"]; got < 0.9 {
		t.Errorf("cg refinement SPMD score %v", got)
	}
	// Part B: the geometry unsolvable by any single eps must come out as
	// exactly 2 clusters under the refinement ladder.
	if got := res.Metrics["hard_refinement_clusters"]; got != 2 {
		t.Errorf("hard geometry: refinement found %v clusters, want 2", got)
	}
	if got := res.Metrics["hard_refinement_noise"]; got > 20 {
		t.Errorf("hard geometry: refinement noise %v", got)
	}
}

func TestF4AttributionRate(t *testing.T) {
	res := runExp(t, "F4")
	if got := res.Metrics["line_match_rate"]; got < 0.9 {
		t.Errorf("line match rate %.2f below 90%%", got)
	}
}

func TestT4SpeedupBand(t *testing.T) {
	res := runExp(t, "T4")
	for _, app := range []string{"cg", "stencil", "nbody"} {
		got := res.Metrics[app+"_speedup_pct"]
		if got < 5 || got > 40 {
			t.Errorf("%s speedup %.1f%% outside the plausible 5-40%% band", app, got)
		}
	}
}

func TestF5MultiplexingError(t *testing.T) {
	res := runExp(t, "F5")
	if got := res.Metrics["worst_fullscale_err"]; got > 0.05 {
		t.Errorf("multiplexed rates deviate up to %.3f full-scale from native", got)
	}
	if res.Metrics["native_phases"] != res.Metrics["mux_phases"] {
		t.Errorf("phase counts differ: native %v vs mux %v",
			res.Metrics["native_phases"], res.Metrics["mux_phases"])
	}
}

func TestF6PWLSharperThanKernel(t *testing.T) {
	res := runExp(t, "F6")
	if res.Metrics["pwl_edge_err"] >= res.Metrics["kernel_edge_err"] {
		t.Errorf("PWL edge error %.3f not below kernel %.3f",
			res.Metrics["pwl_edge_err"], res.Metrics["kernel_edge_err"])
	}
}

func TestA1AblationOrdering(t *testing.T) {
	res := runExp(t, "A1")
	if res.Metrics["f1_baseline"] != 1 {
		t.Errorf("baseline F1 %v, want 1", res.Metrics["f1_baseline"])
	}
	// The exact DP must not be worse than the greedy splitter.
	if res.Metrics["f1_greedy"] > res.Metrics["f1_baseline"] {
		t.Error("greedy splitter outperformed exact DP")
	}
	// Under-provisioned K must hurt the profile badly.
	if res.Metrics["mae_fixed_k2"] < 4*res.Metrics["mae_baseline"] {
		t.Errorf("K=2 MAE %v not clearly worse than baseline %v",
			res.Metrics["mae_fixed_k2"], res.Metrics["mae_baseline"])
	}
	// Disabling the merge pass must not improve breakpoint F1.
	if res.Metrics["f1_no_merge"] > res.Metrics["f1_baseline"] {
		t.Error("removing the merge pass improved F1")
	}
}

func TestA2BothModesWork(t *testing.T) {
	res := runExp(t, "A2")
	for _, slug := range []string{"timer", "overflow"} {
		if res.Metrics["f1_"+slug] != 1 {
			t.Errorf("%s mode F1 %v, want 1", slug, res.Metrics["f1_"+slug])
		}
		if res.Metrics["mae_"+slug] > 0.05 {
			t.Errorf("%s mode MAE %v above 5%%", slug, res.Metrics["mae_"+slug])
		}
	}
}

func TestF10PowerProfile(t *testing.T) {
	res := runExp(t, "F10")
	if got := res.Metrics["worst_rel_err"]; got > 0.05 {
		t.Errorf("per-phase power error %.3f above 5%%", got)
	}
	// Power ordering: dense FP draws more than the pointer chase...
	if res.Metrics["power_dense"] <= res.Metrics["power_chase"] {
		t.Errorf("power ordering wrong: dense %vW vs chase %vW",
			res.Metrics["power_dense"], res.Metrics["power_chase"])
	}
	// ...but energy per instruction inverts (static power over few
	// instructions).
	if res.Metrics["epi_dense"] >= res.Metrics["epi_chase"] {
		t.Errorf("EPI ordering wrong: dense %v vs chase %v nJ/instr",
			res.Metrics["epi_dense"], res.Metrics["epi_chase"])
	}
}

func TestByIDUnknown(t *testing.T) {
	if _, err := ByID("Z9"); err == nil {
		t.Fatal("unknown experiment accepted")
	}
}

func TestAllExperimentsHaveDistinctIDs(t *testing.T) {
	seen := map[string]bool{}
	for _, r := range All() {
		if seen[r.ID] {
			t.Fatalf("duplicate experiment id %s", r.ID)
		}
		seen[r.ID] = true
		if r.Run == nil || r.Name == "" {
			t.Fatalf("experiment %s incomplete", r.ID)
		}
	}
	if len(seen) != 15 {
		t.Fatalf("have %d experiments, want 15", len(seen))
	}
}

func TestR1RobustnessDegradesGracefully(t *testing.T) {
	res := runExp(t, "R1")
	if got := res.Metrics["crashes"]; got != 0 {
		t.Fatalf("%v fault cells crashed the lenient pipeline", got)
	}
	for _, c := range r1Classes {
		clean := res.Metrics["rel_mae_"+c.name+"_0"]
		if clean > 0.05 {
			t.Errorf("%s: clean-baseline error %.4f above 5%%", c.name, clean)
		}
		// No cliffs: even at 20% injected faults the reconstruction stays a
		// reconstruction, not garbage.
		worst := res.Metrics[fmt.Sprintf("rel_mae_%s_%g", c.name, 0.2)]
		if worst > 0.5 {
			t.Errorf("%s: error %.4f at rate 0.2 — the degradation cliff R1 forbids", c.name, worst)
		}
	}
	// The damage classes that perturb records at a 10% rate must be admitted
	// through diagnostics, not silently absorbed.
	for _, name := range []string{"drop", "truncate", "dup", "zero", "garble", "reorder"} {
		if res.Metrics[fmt.Sprintf("diags_%s_%g", name, 0.1)] == 0 {
			t.Errorf("%s at 10%% produced no diagnostics", name)
		}
	}
}

func TestR2ExecutionGuardsBoundedAndCrashFree(t *testing.T) {
	res := runExp(t, "R2")
	if got := res.Metrics["crashes"]; got != 0 {
		t.Fatalf("%v jobs crashed the process", got)
	}
	if got, want := res.Metrics["jobs_accounted"], res.Metrics["jobs_total"]; got != want {
		t.Fatalf("%v of %v jobs accounted for — the supervisor lost jobs", got, want)
	}
	if got := res.Metrics["fault_fraction"]; got < 0.2 {
		t.Fatalf("only %.0f%% of inputs faulted; the acceptance bar is 20%%", 100*got)
	}
	if res.Metrics["within_bound"] != 1 {
		t.Errorf("batch wall clock %vms exceeded the %vms bound (2 × timeout × waves)",
			res.Metrics["wall_ms"], res.Metrics["bound_ms"])
	}
	// The two hang inputs can only end via the per-job timeout.
	if got := res.Metrics["outcome_timeout"]; got < 2 {
		t.Errorf("%v timeouts, want at least the 2 hanging inputs", got)
	}
	// The panicking input must be quarantined, not fatal.
	if got := res.Metrics["outcome_quarantined"]; got < 1 {
		t.Errorf("panicking input was not quarantined (quarantined=%v)", got)
	}
	// Budget-trimmed and salvage-decoded inputs complete as degraded.
	if got := res.Metrics["outcome_degraded"]; got < 2 {
		t.Errorf("%v degraded outcomes, want at least 2 (budget + chop)", got)
	}
	// Healthy inputs (including the retried flaky one) finish clean.
	if got := res.Metrics["outcome_ok"]; got < 13 {
		t.Errorf("%v ok outcomes, want at least 13", got)
	}
}
