package pwl

import (
	"context"
	"fmt"
	"math"
	"slices"
	"sync"

	"phasefold/internal/obs"
)

// lsqAccum answers weighted least-squares line-fit queries over bin ranges
// [i, j] in O(1) after an O(n) prefix-sum precomputation.
type lsqAccum struct {
	sw, swx, swy, swxx, swxy, swyy []float64
}

func newLSQAccum(bins []bin) *lsqAccum {
	n := len(bins)
	a := &lsqAccum{
		sw:   make([]float64, n+1),
		swx:  make([]float64, n+1),
		swy:  make([]float64, n+1),
		swxx: make([]float64, n+1),
		swxy: make([]float64, n+1),
		swyy: make([]float64, n+1),
	}
	for i, b := range bins {
		a.sw[i+1] = a.sw[i] + b.w
		a.swx[i+1] = a.swx[i] + b.w*b.x
		a.swy[i+1] = a.swy[i] + b.w*b.y
		a.swxx[i+1] = a.swxx[i] + b.w*b.x*b.x
		a.swxy[i+1] = a.swxy[i] + b.w*b.x*b.y
		a.swyy[i+1] = a.swyy[i] + b.w*b.y*b.y
	}
	return a
}

// sse returns the weighted SSE of the best line over bins [i, j] inclusive.
func (a *lsqAccum) sse(i, j int) float64 {
	sw := a.sw[j+1] - a.sw[i]
	swx := a.swx[j+1] - a.swx[i]
	swy := a.swy[j+1] - a.swy[i]
	swxx := a.swxx[j+1] - a.swxx[i]
	swxy := a.swxy[j+1] - a.swxy[i]
	swyy := a.swyy[j+1] - a.swyy[i]
	det := swxx - swx*swx/sw
	var slope float64
	if det > 1e-18 {
		slope = (swxy - swx*swy/sw) / det
	}
	intercept := (swy - slope*swx) / sw
	sse := swyy - 2*slope*swxy - 2*intercept*swy +
		slope*slope*swxx + 2*slope*intercept*swx + intercept*intercept*sw
	if sse < 0 {
		sse = 0 // numerical noise on near-perfect fits
	}
	return sse
}

// dpScratch is segmentDP's working set: one column of segment costs and
// the DP's cost and back-pointer rows. Fits run concurrently, one per
// cluster, so it is pooled.
type dpScratch struct {
	sse  []float64
	cost []float64
	from []int
}

var dpPool = sync.Pool{New: func() any { return new(dpScratch) }}

// segmentDP computes, for every model order k in [1, kmax], the optimal cuts
// (segment start indices) minimizing total SSE, via the classical Bellman
// segmented-least-squares recurrence. Returns per-k cuts and SSE.
//
// Every order reads the same segment costs, so the DP runs column by
// column: it evaluates sse(i, j) once for every i <= j, then advances every
// order at j, which needs only columns before j of the order below. Each
// cell compares the same values in the same order as evaluating sse inside
// the recurrence, so every cut and SSE is the same. The columns poll ctx:
// each costs O(kmax·n).
func segmentDP(ctx context.Context, bins []bin, kmax int) (cutsPerK [][]int, ssePerK []float64, err error) {
	n := len(bins)
	if kmax > n {
		kmax = n
	}
	acc := newLSQAccum(bins)
	sc := dpPool.Get().(*dpScratch)
	defer dpPool.Put(sc)
	// sse[i] is sse(i, j) for the current column j; cost[k*n+j] is the best
	// SSE covering bins [0..j] with k+1 segments, and from[k*n+j] the first
	// bin of its last segment.
	sc.sse = slices.Grow(sc.sse[:0], n)[:n]
	sc.cost = slices.Grow(sc.cost[:0], kmax*n)[:kmax*n]
	sc.from = slices.Grow(sc.from[:0], kmax*n)[:kmax*n]
	sse, cost, from := sc.sse, sc.cost, sc.from
	for j := 0; j < n; j++ {
		if cerr := ctx.Err(); cerr != nil {
			return nil, nil, cerr
		}
		last := j
		if kmax == 1 {
			last = 0 // one segment reads only sse(0, j)
		}
		for i := 0; i <= last; i++ {
			sse[i] = acc.sse(i, j)
		}
		cost[j] = sse[0]
		for k := 1; k < kmax; k++ {
			prev := cost[(k-1)*n:]
			best := math.Inf(1)
			bestI := 0
			// Last segment is [i..j]; previous k segments cover [0..i-1].
			for i := k; i <= j; i++ {
				c := prev[i-1] + sse[i]
				if c < best {
					best = c
					bestI = i
				}
			}
			cost[k*n+j] = best
			from[k*n+j] = bestI
		}
	}
	// Report the DP volume to whatever telemetry the caller attached: the
	// cell count lands on the enclosing span and the run-wide counter.
	cells := int64(kmax) * int64(n)
	obs.SpanFromContext(ctx).AddInt("dp_cells", cells)
	obs.Metrics(ctx).Counter(obs.MetricDPCells,
		"Segmented-least-squares DP cells evaluated.").Add(cells)
	cutsPerK = make([][]int, kmax)
	ssePerK = make([]float64, kmax)
	for k := 0; k < kmax; k++ {
		ssePerK[k] = cost[k*n+n-1]
		cuts := make([]int, k)
		j := n - 1
		for kk := k; kk >= 1; kk-- {
			i := from[kk*n+j]
			cuts[kk-1] = i
			j = i - 1
		}
		cutsPerK[k] = cuts
	}
	return cutsPerK, ssePerK, nil
}

// selectDP picks the model order by a BIC-style criterion over the exact DP
// solutions and returns the chosen cuts.
func selectDP(ctx context.Context, bins []bin, opt Options) ([]int, error) {
	kmax := opt.MaxSegments
	if kmax > len(bins)/2 {
		kmax = len(bins) / 2
	}
	if kmax < 1 {
		kmax = 1
	}
	cutsPerK, ssePerK, err := segmentDP(ctx, bins, kmax)
	if err != nil {
		return nil, err
	}
	if opt.FixedSegments > 0 {
		k := opt.FixedSegments
		if k > len(cutsPerK) {
			k = len(cutsPerK)
		}
		return cutsPerK[k-1], nil
	}
	return cutsPerK[chooseOrder(bins, ssePerK, opt)-1], nil
}

// chooseOrder applies the BIC criterion: n·ln(SSE/n + floor) + p·ln(n)
// with p = 3k-1 parameters (k slopes, k intercepts, k-1 breakpoints); the
// floor keeps the criterion finite on noise-free synthetic fits.
func chooseOrder(bins []bin, ssePerK []float64, opt Options) int {
	var n float64
	for _, b := range bins {
		n += b.w
	}
	const floor = 1e-9
	bestK, bestBIC := 1, math.Inf(1)
	for k := 1; k <= len(ssePerK); k++ {
		p := float64(3*k - 1)
		bic := n*math.Log(ssePerK[k-1]/n+floor) + opt.PenaltyScale*p*math.Log(n)
		if bic < bestBIC {
			bestBIC = bic
			bestK = k
		}
	}
	return bestK
}

// selectGreedy is the ablation comparator: top-down recursive splitting.
// Starting from one segment, it repeatedly splits the segment whose best
// split reduces SSE the most, until MaxSegments or until the relative
// improvement stalls.
func selectGreedy(ctx context.Context, bins []bin, opt Options) ([]int, error) {
	acc := newLSQAccum(bins)
	n := len(bins)
	type seg struct{ lo, hi int }
	segs := []seg{{0, n - 1}}
	total := acc.sse(0, n-1)
	target := opt.MaxSegments
	if opt.FixedSegments > 0 {
		target = opt.FixedSegments
	}
	for len(segs) < target {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		bestGain := 0.0
		bestSeg, bestCut := -1, -1
		for si, s := range segs {
			if s.hi-s.lo < 1 {
				continue
			}
			base := acc.sse(s.lo, s.hi)
			for c := s.lo + 1; c <= s.hi; c++ {
				gain := base - acc.sse(s.lo, c-1) - acc.sse(c, s.hi)
				if gain > bestGain {
					bestGain = gain
					bestSeg, bestCut = si, c
				}
			}
		}
		if bestSeg < 0 {
			break
		}
		// Stop when model selection is on and the split no longer pays: the
		// gain threshold mirrors the BIC penalty slope.
		if opt.FixedSegments == 0 {
			var wsum float64
			for _, b := range bins {
				wsum += b.w
			}
			if bestGain < opt.PenaltyScale*3*math.Log(wsum)/wsum*math.Max(total, 1e-9) {
				break
			}
		}
		s := segs[bestSeg]
		segs = append(segs[:bestSeg], append([]seg{{s.lo, bestCut - 1}, {bestCut, s.hi}}, segs[bestSeg+1:]...)...)
	}
	cuts := make([]int, 0, len(segs)-1)
	for _, s := range segs {
		if s.lo > 0 {
			cuts = append(cuts, s.lo)
		}
	}
	sortInts(cuts)
	return cuts, nil
}

func sortInts(s []int) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

// refitContinuous fits the continuous hinge-basis model with the given
// breakpoints to the bins by weighted least squares.
func refitContinuous(bins []bin, bps []float64) (*Model, error) {
	p := 2 + len(bps)
	// Normal equations A c = b with basis [1, x, (x-b1)+, ...].
	A := make([][]float64, p)
	for i := range A {
		A[i] = make([]float64, p)
	}
	rhs := make([]float64, p)
	basis := make([]float64, p)
	for _, bn := range bins {
		basis[0] = 1
		basis[1] = bn.x
		for k, bp := range bps {
			if bn.x > bp {
				basis[2+k] = bn.x - bp
			} else {
				basis[2+k] = 0
			}
		}
		for i := 0; i < p; i++ {
			for j := 0; j < p; j++ {
				A[i][j] += bn.w * basis[i] * basis[j]
			}
			rhs[i] += bn.w * basis[i] * bn.y
		}
	}
	coef, err := solveSPD(A, rhs)
	if err != nil {
		return nil, fmt.Errorf("pwl: continuous refit: %w", err)
	}
	m := &Model{Breakpoints: append([]float64(nil), bps...), coef: coef}
	for _, bn := range bins {
		r := bn.y - m.Eval(bn.x)
		m.SSE += bn.w * r * r
	}
	return m, nil
}

// solveSPD solves the symmetric system via Gaussian elimination with partial
// pivoting; systems here are tiny (≤ 10 unknowns).
func solveSPD(A [][]float64, b []float64) ([]float64, error) {
	n := len(A)
	// Work on copies.
	m := make([][]float64, n)
	for i := range m {
		m[i] = append([]float64(nil), A[i]...)
		m[i] = append(m[i], b[i])
	}
	for col := 0; col < n; col++ {
		// Pivot.
		piv := col
		for r := col + 1; r < n; r++ {
			if math.Abs(m[r][col]) > math.Abs(m[piv][col]) {
				piv = r
			}
		}
		if math.Abs(m[piv][col]) < 1e-14 {
			return nil, fmt.Errorf("singular system at column %d", col)
		}
		m[col], m[piv] = m[piv], m[col]
		for r := col + 1; r < n; r++ {
			f := m[r][col] / m[col][col]
			for c := col; c <= n; c++ {
				m[r][c] -= f * m[col][c]
			}
		}
	}
	x := make([]float64, n)
	for i := n - 1; i >= 0; i-- {
		s := m[i][n]
		for j := i + 1; j < n; j++ {
			s -= m[i][j] * x[j]
		}
		x[i] = s / m[i][i]
	}
	return x, nil
}
