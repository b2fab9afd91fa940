package cluster

import (
	"context"
	"fmt"
	"math"
	"sort"

	"phasefold/internal/obs"
)

// RefineOptions parameterizes the Aggregative Cluster Refinement: an
// iterative scheme that walks an eps ladder from coarse to fine. A cluster
// found at one rung is re-clustered at the next (halved) eps: if it splits,
// the parts continue down the ladder separately; if it merely erodes or
// fragments into noise — meaning the rung's eps undershoots that cluster's
// intrinsic density — the aggregate from the coarser rung is kept. Dense and
// sparse clusters therefore settle at different rungs, which removes
// DBSCAN's single-eps blindness to varying densities (González et al.,
// IPDPS-W 2012).
type RefineOptions struct {
	// MinPts as in DBSCAN.
	MinPts int
	// EpsMax is the coarsest neighbourhood radius (first ladder step).
	EpsMax float64
	// Steps is the number of ladder steps; each step halves eps.
	Steps int
}

// DefaultRefineOptions returns the parameterization used by the experiments:
// a ladder from 0.30 down to ~0.019 in normalized feature space.
func DefaultRefineOptions() RefineOptions {
	return RefineOptions{MinPts: 4, EpsMax: 0.30, Steps: 5}
}

// Validate reports parameter errors.
func (o RefineOptions) Validate() error {
	switch {
	case o.MinPts < 1:
		return fmt.Errorf("cluster: refine MinPts %d < 1", o.MinPts)
	case o.EpsMax <= 0:
		return fmt.Errorf("cluster: refine EpsMax %v <= 0", o.EpsMax)
	case o.Steps < 1:
		return fmt.Errorf("cluster: refine Steps %d < 1", o.Steps)
	}
	return nil
}

// centroid returns the mean of the selected points.
func centroid(pts []Point, members []int) Point {
	if len(members) == 0 {
		return nil
	}
	dim := len(pts[members[0]])
	c := make(Point, dim)
	for _, i := range members {
		for j, v := range pts[i] {
			c[j] += v
		}
	}
	for j := range c {
		c[j] /= float64(len(members))
	}
	return c
}

// rmsSpread returns the RMS distance of the members to their centroid,
// used by reports to describe cluster tightness.
func rmsSpread(pts []Point, members []int) float64 {
	c := centroid(pts, members)
	if c == nil {
		return 0
	}
	s := 0.0
	for _, i := range members {
		s += dist2(pts[i], c)
	}
	return math.Sqrt(s / float64(len(members)))
}

// Refine runs the aggregative refinement over normalized points and returns
// final labels (cluster ids in [0,k) or Noise). Labels are deterministic.
func Refine(pts []Point, opt RefineOptions) ([]int, error) {
	return RefineContext(context.Background(), pts, opt)
}

// RefineContext is Refine under a cancellable context: every ladder rung
// checks ctx before re-clustering, and the underlying DBSCAN polls inside
// its own loops.
func RefineContext(ctx context.Context, pts []Point, opt RefineOptions) ([]int, error) {
	if err := opt.Validate(); err != nil {
		return nil, err
	}
	labels := make([]int, len(pts))
	for i := range labels {
		labels[i] = Noise
	}
	if len(pts) == 0 {
		return labels, nil
	}
	var accepted [][]int
	rounds := int64(0)
	// One index and one set of subset buffers serve every rung: a rung
	// is done with them once its groups are built, before it recurses.
	var (
		idx       cellIndex
		sub       []Point
		subLabels []int
	)
	var refine func(members []int, eps float64, step, depth int) error
	refine = func(members []int, eps float64, step, depth int) error {
		if err := ctx.Err(); err != nil {
			return err
		}
		rounds++
		sub = sub[:0]
		for _, i := range members {
			sub = append(sub, pts[i])
		}
		subLabels = resize(subLabels, len(members))
		if err := idx.dbscan(ctx, sub, DBSCANOptions{Eps: eps, MinPts: opt.MinPts}, subLabels); err != nil {
			return err
		}
		groups := groupByLabel(subLabels, members)
		nClusters := len(groups)
		covered, largest := 0, 0
		for _, g := range groups {
			covered += len(g)
			if len(g) > largest {
				largest = len(g)
			}
		}
		lastStep := step == opt.Steps-1
		// A *genuine* split produces two or more substantial subclusters
		// that together retain most of the mass (both modes are dense at
		// this rung); erosion produces one dominant subcluster plus edge
		// noise; density fragmentation produces only shards. The three
		// cases are handled differently: recurse the parts, descend with
		// the core, or keep the coarser rung's aggregate. The "substantial"
		// threshold is deliberately low (2.5%) because real splits are
		// often very unequal — a rare region's cluster is a small fraction
		// of the hot region's.
		bigThreshold := len(members) / 40
		if bigThreshold < 2*opt.MinPts {
			bigThreshold = 2 * opt.MinPts
		}
		var big []int // labels of substantial subclusters
		for label := 0; label < nClusters; label++ {
			if len(groups[label]) >= bigThreshold {
				big = append(big, label)
			}
		}
		switch {
		case depth > 0 && lastStep:
			accepted = append(accepted, members)
		case len(big) >= 2 && covered*4 >= 3*len(members):
			for _, label := range big {
				if err := refine(groups[label], eps/2, step+1, depth+1); err != nil {
					return err
				}
			}
		case depth > 0 && largest*2 >= len(members):
			// Erosion: one dominant core; keep probing its density.
			for label := 0; label < nClusters; label++ {
				if len(groups[label]) == largest {
					return refine(groups[label], eps/2, step+1, depth+1)
				}
			}
		case depth > 0:
			// Fragmentation: this eps undershoots the set's density; the
			// aggregate found at the coarser rung is the real cluster.
			accepted = append(accepted, members)
		default:
			// Top level: recurse (or accept, at the last rung) whatever
			// clusters exist; the rest is global noise.
			for label := 0; label < nClusters; label++ {
				if lastStep {
					accepted = append(accepted, groups[label])
					continue
				}
				if err := refine(groups[label], eps/2, step+1, depth+1); err != nil {
					return err
				}
			}
		}
		return nil
	}
	if err := refine(allIndices(len(pts)), opt.EpsMax, 0, 0); err != nil {
		return nil, err
	}
	// Each round is one DBSCAN re-clustering of some subset; the total tells
	// how hard the ladder worked on this density landscape.
	obs.SpanFromContext(ctx).AddInt("refine_rounds", rounds)
	obs.Metrics(ctx).Counter(obs.MetricRefineRounds,
		"Aggregative-refinement re-clustering rounds run.").Add(rounds)
	// Deterministic cluster numbering: sort accepted clusters by size
	// descending, then by smallest member index.
	sort.Slice(accepted, func(a, b int) bool {
		if len(accepted[a]) != len(accepted[b]) {
			return len(accepted[a]) > len(accepted[b])
		}
		return accepted[a][0] < accepted[b][0]
	})
	for c, members := range accepted {
		for _, i := range members {
			labels[i] = c
		}
	}
	return labels, nil
}

func allIndices(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

// groupByLabel splits members by their DBSCAN labels: groups[l] lists, in
// ascending order, the members labelled l (labels[k] is members[k]'s
// label). Noise is left out. All groups share one backing array.
func groupByLabel(labels, members []int) [][]int {
	k := NumClusters(labels)
	at := make([]int, k+1)
	for _, l := range labels {
		if l != Noise {
			at[l+1]++
		}
	}
	for l := 0; l < k; l++ {
		at[l+1] += at[l]
	}
	flat := make([]int, at[k])
	groups := make([][]int, k)
	for l := range groups {
		groups[l] = flat[at[l]:at[l]:at[l+1]]
	}
	for i, l := range labels {
		if l != Noise {
			groups[l] = append(groups[l], members[i])
		}
	}
	return groups
}
