package pwl

import (
	"context"
	"math"
	"math/rand"
	"runtime"
	"runtime/debug"
	"slices"
	"testing"
)

// oracleSegmentDP is the recurrence before the segment costs were computed
// once per range: it evaluates sse(i, j) inside the recurrence, once per
// model order.
func oracleSegmentDP(bins []bin, kmax int) (cutsPerK [][]int, ssePerK []float64) {
	n := len(bins)
	if kmax > n {
		kmax = n
	}
	acc := newLSQAccum(bins)
	cost := make([][]float64, kmax)
	from := make([][]int, kmax)
	for k := range cost {
		cost[k] = make([]float64, n)
		from[k] = make([]int, n)
	}
	for j := 0; j < n; j++ {
		cost[0][j] = acc.sse(0, j)
	}
	for k := 1; k < kmax; k++ {
		for j := 0; j < n; j++ {
			best := math.Inf(1)
			bestI := 0
			for i := k; i <= j; i++ {
				c := cost[k-1][i-1] + acc.sse(i, j)
				if c < best {
					best = c
					bestI = i
				}
			}
			cost[k][j] = best
			from[k][j] = bestI
		}
	}
	cutsPerK = make([][]int, kmax)
	ssePerK = make([]float64, kmax)
	for k := 0; k < kmax; k++ {
		ssePerK[k] = cost[k][n-1]
		cuts := make([]int, 0, k)
		j := n - 1
		for kk := k; kk >= 1; kk-- {
			i := from[kk][j]
			cuts = append(cuts, i)
			j = i - 1
		}
		slices.Reverse(cuts)
		cutsPerK[k] = cuts
	}
	return cutsPerK, ssePerK
}

// genBins draws 1–200 bins: sorted X, Y along a random piece-wise line with
// noise, or quantized to a few levels (many equal costs, so the DP's tie
// rule decides), with integer or fractional weights.
func genBins(r *rand.Rand) []bin {
	n := 1 + r.Intn(200)
	bins := make([]bin, n)
	levels := 0
	if r.Intn(3) == 0 {
		levels = 1 + r.Intn(4)
	}
	slope, y := r.Float64()*4-2, 0.0
	for i := range bins {
		x := (float64(i) + r.Float64()) / float64(n)
		if r.Intn(20) == 0 {
			slope = r.Float64()*4 - 2
		}
		y += slope / float64(n)
		b := bin{x: x, y: y + r.NormFloat64()*0.01, w: float64(1 + r.Intn(30))}
		if levels > 0 {
			b.y = float64(r.Intn(levels))
		}
		if r.Intn(2) == 0 {
			b.w = r.Float64() + 0.01
		}
		bins[i] = b
	}
	return bins
}

// TestSegmentDPMatchesOracle requires the column-wise DP to return exactly
// the cuts and SSE (compared with ==) of the recurrence that evaluates every
// segment cost once per model order.
func TestSegmentDPMatchesOracle(t *testing.T) {
	r := rand.New(rand.NewSource(28))
	for trial := 0; trial < 400; trial++ {
		bins := genBins(r)
		kmax := 1 + r.Intn(12)
		wantCuts, wantSSE := oracleSegmentDP(bins, kmax)
		gotCuts, gotSSE, err := segmentDP(context.Background(), bins, kmax)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(gotSSE, wantSSE) {
			t.Fatalf("trial %d (%d bins, kmax %d): SSE %v, oracle %v", trial, len(bins), kmax, gotSSE, wantSSE)
		}
		if !slices.EqualFunc(gotCuts, wantCuts, slices.Equal) {
			t.Fatalf("trial %d (%d bins, kmax %d): cuts %v, oracle %v", trial, len(bins), kmax, gotCuts, wantCuts)
		}
	}
}

// TestFitDPBytesPerOp pins the memory BenchmarkFitDP allocates per fit: the
// DP's cost rows and segment costs come from a pool, so a fit allocates no
// more than the 46.6 kB it did when the DP allocated its rows per call and
// had no segment-cost buffer.
func TestFitDPBytesPerOp(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops pooled scratch at random")
	}
	xs, ys := benchCloud(4000)
	opt := DefaultOptions()
	if _, err := Fit(xs, ys, opt); err != nil {
		t.Fatal(err)
	}
	// No collection while measuring: one would empty the pool.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	const runs = 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		if _, err := Fit(xs, ys, opt); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	if perOp := (after.TotalAlloc - before.TotalAlloc) / runs; perOp > 46_592 {
		t.Errorf("Fit allocates %d B per call, want at most 46592", perOp)
	}
}
