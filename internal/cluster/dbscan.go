// Package cluster implements the structure-detection stage: grouping the
// computation bursts of an SPMD execution into clusters of behaviourally
// identical code regions. It provides the density-based DBSCAN algorithm the
// original phase-detection work used (González et al., IPDPS 2009) and the
// Aggregative Cluster Refinement that fixes DBSCAN's two weaknesses —
// parameter sensitivity and varying-density data (IPDPS-W 2012).
//
// DBSCAN runs over an exact cell index. Points go into a uniform grid whose
// cell diagonal is just under eps, so two points sharing a cell are always
// neighbours: a point whose own cell holds MinPts points is core without a
// single distance computation, and a core point claims its own cell
// wholesale. Each cell keeps its members split into settled (already in a
// cluster) and unsettled ones, and cluster expansion only ever visits
// unsettled members, skipping settled cells entirely. Per-cell bounding
// boxes bound a point's distance to a whole neighbour cell, so a cell out
// of reach is skipped and one wholly within reach is taken without
// distance checks. SPMD data — thousands of near-identical bursts per code
// region — therefore clusters in close to linear time instead of one O(n)
// range query per point.
//
// The labels are exactly those of textbook DBSCAN: they depend only on the
// predicate dist2(p, q) <= eps² and on the seed scan in index order.
// Clusters are numbered in seed order, a border point joins the first
// cluster that reaches it, and the order in which one cluster's expansion
// visits its members cannot matter, because claiming a point that already
// belongs to a cluster does nothing.
package cluster

import (
	"context"
	"fmt"
	"math"

	"phasefold/internal/obs"
)

// Noise is the label DBSCAN assigns to points in no cluster.
const Noise = -1

// Point is one observation in feature space.
type Point []float64

// dist2 returns squared Euclidean distance. The conversion rounds each
// square before it is added, so no platform fuses the two into one
// multiply-add: cellIndex.bounds relies on the exact operation sequence.
func dist2(a, b Point) float64 {
	s := 0.0
	for i := range a {
		d := a[i] - b[i]
		s += float64(d * d)
	}
	return s
}

// DBSCANOptions parameterizes a DBSCAN run.
type DBSCANOptions struct {
	// Eps is the neighbourhood radius in (normalized) feature space.
	Eps float64
	// MinPts is the minimum neighbourhood population for a core point.
	MinPts int
}

// Validate reports parameter errors.
func (o DBSCANOptions) Validate() error {
	if o.Eps <= 0 {
		return fmt.Errorf("cluster: non-positive eps %v", o.Eps)
	}
	if o.MinPts < 1 {
		return fmt.Errorf("cluster: MinPts %d < 1", o.MinPts)
	}
	return nil
}

// maxGridDim bounds the dimensionality the cell index grids, with its
// fixed-size cell coordinates. Every feature space in this package is 2-5
// dimensional. Higher-dimensional input, like input the grid cannot place
// exactly (see maxCellCoord), is held in a single cell whose members are
// always distance-checked.
const maxGridDim = 6

// maxCellCoord bounds |coordinate / cell side| for gridding. Below it the
// division's rounding error is under 2^-22 of a cell, far inside the 0.1%
// margin that makes same-cell points neighbours; NaN and ±Inf fail the
// bound too.
const maxCellCoord = 1 << 31

// cellCoord addresses one grid cell; dimensions past the point dimension
// stay zero. A comparable array key hashes without any per-query string
// encoding or allocation.
type cellCoord [maxGridDim]int64

// cellIndex is the exact neighbourhood index DBSCAN runs on. Cells have
// side eps/√d·0.999, so any two members of one cell are within eps of each
// other. Every eps-neighbour of a point lies in its cell's neighbour list:
// the cells whose gap to it, counted in whole cells per dimension, is
// small enough for a point pair to be within eps.
//
// Members of a cell are kept split by swapping in place: the settled ones
// (labelled with a cluster) first, the unsettled ones after. A settled
// point never changes label, so cluster expansion looks only at unsettled
// members. The buffers are reused across runs, which lets the refinement
// ladder re-cluster subset after subset without reallocating.
type cellIndex struct {
	pts  []Point
	dim  int
	eps2 float64
	// near is true when sharing a cell implies being neighbours. It is
	// false only for the one-cell layout of input the grid cannot place.
	near bool

	ids     map[cellCoord]int // cell coordinates -> cell id
	coords  []cellCoord       // per cell
	cellOf  []int             // per point: its cell
	start   []int             // cell c holds members[start[c]:start[c+1]]
	members []int             // point indices, grouped by cell
	settled []int             // per cell: how many leading members are settled
	adj     []int             // cell c's neighbour cells (c included) ...
	adjAt   []int             // ... are adj[adjAt[c]:adjAt[c+1]]
	box     []float64         // per cell: its members' per-dimension minima, then maxima
	offs    []cellCoord       // link's candidate neighbour offsets

	visited []bool
	queue   []int
}

// build indexes pts (non-empty, all of one dimension) for radius eps.
func (x *cellIndex) build(pts []Point, eps float64) {
	n, dim := len(pts), len(pts[0])
	x.pts = pts
	x.dim = dim
	x.eps2 = eps * eps
	x.cellOf = resize(x.cellOf, n)
	x.near = dim <= maxGridDim && x.grid(pts, eps/math.Sqrt(float64(dim))*0.999)
	if !x.near {
		x.coords = append(x.coords[:0], cellCoord{})
		clear(x.cellOf)
	}
	m := len(x.coords)
	// Counting sort by cell; members of a cell stay in index order.
	x.start = resize(x.start, m+1)
	clear(x.start)
	for _, c := range x.cellOf {
		x.start[c+1]++
	}
	for c := 0; c < m; c++ {
		x.start[c+1] += x.start[c]
	}
	x.settled = resize(x.settled, m)
	clear(x.settled)
	x.members = resize(x.members, n)
	for i, c := range x.cellOf {
		x.members[x.start[c]+x.settled[c]] = i
		x.settled[c]++
	}
	clear(x.settled)
	x.link(dim)
	x.boxes()
}

// boxes records each cell's member bounding box.
func (x *cellIndex) boxes() {
	dim := x.dim
	x.box = resize(x.box, 2*dim*len(x.coords))
	for c := range x.coords {
		box := x.box[2*dim*c : 2*dim*(c+1)]
		first := x.pts[x.members[x.start[c]]]
		copy(box, first)
		copy(box[dim:], first)
		for _, i := range x.members[x.start[c]+1 : x.start[c+1]] {
			for j, v := range x.pts[i] {
				box[j] = min(box[j], v)
				box[dim+j] = max(box[dim+j], v)
			}
		}
	}
}

// bounds returns lo <= dist2(pts[i], q) <= hi for every member q of cell
// d, from the cell's bounding box. Per dimension, the gap to the box and
// the distance to its far edge bound |p_j - q_j| from below and above.
// They are squared and summed with dist2's own operations in dist2's
// order, and IEEE rounding is monotonic, so the bounds hold exactly for
// the computed distances, not just the real ones. Grid mode guarantees
// finite coordinates, which the bounds need.
func (x *cellIndex) bounds(i, d int) (lo, hi float64) {
	dim := x.dim
	box := x.box[2*dim*d : 2*dim*(d+1)]
	for j, v := range x.pts[i] {
		below := v - box[j]     // < 0: v is under the box
		above := box[dim+j] - v // < 0: v is over the box
		gap := 0.0
		if below < 0 {
			gap = below
		} else if above < 0 {
			gap = above
		}
		far := max(math.Abs(below), math.Abs(above))
		lo += float64(gap * gap)
		hi += float64(far * far)
	}
	return lo, hi
}

// grid assigns every point its cell of the given side, reporting false
// (with no cells) when some coordinate cannot be placed exactly.
func (x *cellIndex) grid(pts []Point, side float64) bool {
	if x.ids == nil {
		x.ids = make(map[cellCoord]int)
	}
	clear(x.ids)
	x.coords = x.coords[:0]
	for i, p := range pts {
		var key cellCoord
		for j, v := range p {
			f := math.Floor(v / side)
			if !(math.Abs(f) < maxCellCoord) {
				x.coords = x.coords[:0]
				return false
			}
			key[j] = int64(f)
		}
		id, ok := x.ids[key]
		if !ok {
			id = len(x.coords)
			x.ids[key] = id
			x.coords = append(x.coords, key)
		}
		x.cellOf[i] = id
	}
	return true
}

// link builds every cell's neighbour list, probing the map at each
// candidate offset or testing every other cell, whichever is fewer.
func (x *cellIndex) link(dim int) {
	m := len(x.coords)
	x.adjAt = resize(x.adjAt, m+1)
	x.adj = x.adj[:0]
	x.offs = x.offs[:0]
	if x.near {
		x.offs = appendOffsets(x.offs, dim, m)
	}
	for c := 0; c < m; c++ {
		x.adjAt[c] = len(x.adj)
		switch {
		case !x.near:
			x.adj = append(x.adj, c)
		case len(x.offs) > 0:
			for _, o := range x.offs {
				key := x.coords[c]
				for j := 0; j < dim; j++ {
					key[j] += o[j]
				}
				if d, ok := x.ids[key]; ok {
					x.adj = append(x.adj, d)
				}
			}
		default:
			for d := 0; d < m; d++ {
				if cellsMayTouch(x.coords[c], x.coords[d], dim) {
					x.adj = append(x.adj, d)
				}
			}
		}
	}
	x.adjAt[m] = len(x.adj)
}

// cellsMayTouch reports whether cells a and b can hold an eps-neighbour
// pair. With whole cells g_j strictly between them in dimension j, their
// points are at least side·√Σg_j² apart; since side² = eps²/d·0.998, the
// pair is out of reach once Σg_j² > d, with a margin no rounding closes.
func cellsMayTouch(a, b cellCoord, dim int) bool {
	sum := int64(0)
	for j := 0; j < dim; j++ {
		g := a[j] - b[j]
		if g < 0 {
			g = -g
		}
		if g--; g > 0 {
			if g > int64(dim) {
				return false // also keeps g*g from overflowing
			}
			sum += g * g
		}
	}
	return sum <= int64(dim)
}

// appendOffsets appends the offsets o with cellsMayTouch(c, c+o), 25 in
// two dimensions and 125 in three, unless the box they are searched in
// holds more than limit candidates; then it appends none.
func appendOffsets(offs []cellCoord, dim, limit int) []cellCoord {
	r := int64(1) // reach: the largest |o_j| with (|o_j|-1)² <= dim
	for r*r <= int64(dim) {
		r++
	}
	n := 1
	for j := 0; j < dim; j++ {
		if n *= int(2*r + 1); n > limit {
			return offs
		}
	}
	var o cellCoord
	for j := 0; j < dim; j++ {
		o[j] = -r
	}
	for {
		if cellsMayTouch(o, cellCoord{}, dim) {
			offs = append(offs, o)
		}
		j := 0
		for ; j < dim; j++ {
			if o[j]++; o[j] <= r {
				break
			}
			o[j] = -r
		}
		if j == dim {
			return offs
		}
	}
}

// core reports whether pts[i] has at least minPts eps-neighbours (itself
// included), stopping as soon as it has counted enough.
func (x *cellIndex) core(i, minPts int) bool {
	c := x.cellOf[i]
	n := 0
	if x.near {
		n = x.start[c+1] - x.start[c]
		if n >= minPts {
			return true
		}
	}
	p := x.pts[i]
	for _, d := range x.adj[x.adjAt[c]:x.adjAt[c+1]] {
		members := x.members[x.start[d]:x.start[d+1]]
		if x.near {
			if d == c {
				continue // counted above
			}
			lo, hi := x.bounds(i, d)
			if lo > x.eps2 {
				continue
			}
			if hi <= x.eps2 {
				if n += len(members); n >= minPts {
					return true
				}
				continue
			}
		}
		for _, q := range members {
			if dist2(p, x.pts[q]) <= x.eps2 {
				if n++; n >= minPts {
					return true
				}
			}
		}
	}
	return false
}

// open reports whether any cell neighbouring pts[i] still has unsettled
// members; when none does, expanding pts[i] could claim nothing.
func (x *cellIndex) open(i int) bool {
	c := x.cellOf[i]
	for _, d := range x.adj[x.adjAt[c]:x.adjAt[c+1]] {
		if x.start[d]+x.settled[d] < x.start[d+1] {
			return true
		}
	}
	return false
}

// claim puts every unsettled eps-neighbour of core point pts[i] into
// cluster c, settling it, and appends the ones no scan or expansion has
// visited yet to queue for their own expansion. A visited unsettled point
// is a non-core point the seed scan passed over: it joins as a border
// point. Fully settled cells are skipped, and so are cells whose bounding
// box is out of reach. The own cell, and any cell whose box lies wholly
// within reach, is taken without distance checks.
func (x *cellIndex) claim(i, c int, labels []int, queue []int) []int {
	ci := x.cellOf[i]
	p := x.pts[i]
	for _, d := range x.adj[x.adjAt[ci]:x.adjAt[ci+1]] {
		end := x.start[d+1]
		if x.start[d]+x.settled[d] == end {
			continue
		}
		free := d == ci && x.near
		if x.near && !free {
			lo, hi := x.bounds(i, d)
			if lo > x.eps2 {
				continue
			}
			free = hi <= x.eps2
		}
		for k := x.start[d] + x.settled[d]; k < end; k++ {
			q := x.members[k]
			if !free && !(dist2(p, x.pts[q]) <= x.eps2) {
				continue
			}
			// The member swapped into slot k was unsettled and already
			// examined.
			x.settleAt(d, k, c, labels)
			if !x.visited[q] {
				x.visited[q] = true
				queue = append(queue, q)
			}
		}
	}
	return queue
}

// settleAt labels the unsettled member in slot k of cell d with cluster
// c and swaps it to the end of the cell's settled prefix.
func (x *cellIndex) settleAt(d, k, c int, labels []int) {
	q, s := x.members[k], x.start[d]+x.settled[d]
	x.members[k], x.members[s] = x.members[s], q
	x.settled[d]++
	labels[q] = c
}

// settle labels the unsettled point pts[i] with cluster c outside a claim.
func (x *cellIndex) settle(i, c int, labels []int) {
	d := x.cellOf[i]
	for k := x.start[d] + x.settled[d]; k < x.start[d+1]; k++ {
		if x.members[k] == i {
			x.settleAt(d, k, c, labels)
			return
		}
	}
}

func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// dbscanPoll is how many points the outer scan visits between context
// polls; expansionPoll is how many queue pops run between polls inside the
// breadth-first growth loop. An expansion can scan a whole neighbourhood,
// so the expansion interval is much tighter to keep cancellation latency
// bounded by tens of expansions, not thousands.
const (
	dbscanPoll    = 2048
	expansionPoll = 64
)

// DBSCAN labels each point with a cluster id in [0, k) or Noise. Labels are
// deterministic: clusters are numbered in order of discovery scanning points
// by index.
func DBSCAN(pts []Point, opt DBSCANOptions) ([]int, error) {
	return DBSCANContext(context.Background(), pts, opt)
}

// DBSCANContext is DBSCAN under a cancellable context, polled inside both
// the point scan and the cluster-expansion loop so a deadline interrupts
// even one degenerate everything-is-one-cluster expansion.
func DBSCANContext(ctx context.Context, pts []Point, opt DBSCANOptions) ([]int, error) {
	labels := make([]int, len(pts))
	var x cellIndex
	if err := x.dbscan(ctx, pts, opt, labels); err != nil {
		return nil, err
	}
	return labels, nil
}

// dbscan clusters pts into labels (of the same length) on the index's
// reusable buffers.
func (x *cellIndex) dbscan(ctx context.Context, pts []Point, opt DBSCANOptions, labels []int) error {
	if err := opt.Validate(); err != nil {
		return err
	}
	for i, p := range pts {
		if len(p) != len(pts[0]) {
			return fmt.Errorf("cluster: point %d has dimension %d, want %d", i, len(p), len(pts[0]))
		}
	}
	for i := range labels {
		labels[i] = Noise
	}
	n := len(pts)
	if n == 0 {
		return nil
	}
	x.build(pts, opt.Eps)
	x.visited = resize(x.visited, n)
	clear(x.visited)
	next := 0
	expanded := 0
	for i := 0; i < n; i++ {
		if i%dbscanPoll == 0 {
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		if x.visited[i] {
			continue
		}
		x.visited[i] = true
		if !x.core(i, opt.MinPts) {
			continue // remains noise unless later claimed as a border point
		}
		// Start a new cluster and expand it breadth-first. Points are
		// claimed at enqueue time, so each enters the queue at most once.
		c := next
		next++
		x.queue = x.claim(i, c, labels, x.queue[:0])
		if labels[i] == Noise {
			// Only a seed with an infinite coordinate under an infinite
			// eps² is not its own neighbour; it still heads the cluster.
			x.settle(i, c, labels)
		}
		for qi := 0; qi < len(x.queue); qi++ {
			expanded++
			if expanded%expansionPoll == 0 {
				if err := ctx.Err(); err != nil {
					return err
				}
			}
			j := x.queue[qi]
			if x.open(j) && x.core(j, opt.MinPts) {
				x.queue = x.claim(j, c, labels, x.queue)
			}
		}
	}
	// Expansion volume is DBSCAN's real cost driver (points alone hide the
	// density); surface it to the caller's telemetry.
	obs.SpanFromContext(ctx).AddInt("dbscan_expansions", int64(expanded))
	obs.Metrics(ctx).Counter(obs.MetricDBSCANExpansions,
		"DBSCAN neighbourhood expansions performed.").Add(int64(expanded))
	return nil
}

// NumClusters returns the number of distinct non-noise labels.
func NumClusters(labels []int) int {
	maxL := -1
	for _, l := range labels {
		if l > maxL {
			maxL = l
		}
	}
	return maxL + 1
}

// Sizes returns the population of each cluster label plus the noise count.
func Sizes(labels []int) (sizes []int, noise int) {
	sizes = make([]int, NumClusters(labels))
	for _, l := range labels {
		if l == Noise {
			noise++
			continue
		}
		sizes[l]++
	}
	return sizes, noise
}
