package cluster

import (
	"context"
	"fmt"
	"math"
	"sort"
	"testing"

	"phasefold/internal/obs"
	"phasefold/internal/sim"
)

// oracleDBSCAN is textbook DBSCAN with brute-force region queries: seeds
// are scanned in index order, each cluster expands breadth-first to
// fixpoint, and a border point joins the first cluster that reaches it. It
// returns the labels and the number of expansions (queue pops) the run
// made, the figure DBSCAN reports as dbscan_expansions.
func oracleDBSCAN(pts []Point, opt DBSCANOptions) ([]int, int64) {
	n := len(pts)
	eps2 := opt.Eps * opt.Eps
	region := func(i int) []int {
		var out []int
		for j := range pts {
			if dist2(pts[i], pts[j]) <= eps2 {
				out = append(out, j)
			}
		}
		return out
	}
	labels := make([]int, n)
	for i := range labels {
		labels[i] = Noise
	}
	visited := make([]bool, n)
	var expansions int64
	next := 0
	for i := 0; i < n; i++ {
		if visited[i] {
			continue
		}
		visited[i] = true
		nb := region(i)
		if len(nb) < opt.MinPts {
			continue
		}
		c := next
		next++
		labels[i] = c
		var queue []int
		claim := func(nb []int) {
			for _, j := range nb {
				if !visited[j] {
					visited[j] = true
					labels[j] = c
					queue = append(queue, j)
				} else if labels[j] == Noise {
					labels[j] = c
				}
			}
		}
		claim(nb)
		for qi := 0; qi < len(queue); qi++ {
			expansions++
			if nb := region(queue[qi]); len(nb) >= opt.MinPts {
				claim(nb)
			}
		}
	}
	return labels, expansions
}

// oracleRefine is the aggregative refinement ladder as RefineContext runs
// it, over oracleDBSCAN, with label groups kept in a map. It returns the
// labels, the rounds run and the expansions summed over every round.
func oracleRefine(pts []Point, opt RefineOptions) ([]int, int64, int64) {
	labels := make([]int, len(pts))
	for i := range labels {
		labels[i] = Noise
	}
	var accepted [][]int
	var rounds, expansions int64
	var refine func(members []int, eps float64, step, depth int)
	refine = func(members []int, eps float64, step, depth int) {
		rounds++
		sub := make([]Point, len(members))
		for k, i := range members {
			sub[k] = pts[i]
		}
		subLabels, ex := oracleDBSCAN(sub, DBSCANOptions{Eps: eps, MinPts: opt.MinPts})
		expansions += ex
		groups := map[int][]int{}
		for k, l := range subLabels {
			groups[l] = append(groups[l], members[k])
		}
		covered, nClusters, largest := 0, 0, 0
		for label, g := range groups {
			if label != Noise {
				covered += len(g)
				nClusters++
				largest = max(largest, len(g))
			}
		}
		lastStep := step == opt.Steps-1
		bigThreshold := max(len(members)/40, 2*opt.MinPts)
		var big []int
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
				refine(groups[label], eps/2, step+1, depth+1)
			}
		case depth > 0 && largest*2 >= len(members):
			for label := 0; label < nClusters; label++ {
				if len(groups[label]) == largest {
					refine(groups[label], eps/2, step+1, depth+1)
					return
				}
			}
		case depth > 0:
			accepted = append(accepted, members)
		default:
			for label := 0; label < nClusters; label++ {
				if lastStep {
					accepted = append(accepted, groups[label])
				} else {
					refine(groups[label], eps/2, step+1, depth+1)
				}
			}
		}
	}
	if len(pts) > 0 {
		refine(allIndices(len(pts)), opt.EpsMax, 0, 0)
	}
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
	return labels, rounds, expansions
}

// oracleSet is one generated point set.
type oracleSet struct {
	name string
	pts  []Point
}

// blobAt returns n points normally spread with the given radius around c.
func blobAt(rng *sim.RNG, n int, c Point, radius float64) []Point {
	out := make([]Point, n)
	for i := range out {
		p := make(Point, len(c))
		for j := range p {
			p[j] = c[j] + rng.Normal(0, radius)
		}
		out[i] = p
	}
	return out
}

// unit returns a random unit vector.
func unit(rng *sim.RNG, dim int) Point {
	u := make(Point, dim)
	norm := 0.0
	for j := range u {
		u[j] = rng.Normal(0, 1)
		norm += u[j] * u[j]
	}
	for j := range u {
		u[j] /= math.Sqrt(norm)
	}
	return u
}

// along returns a + t·u as a new point.
func along(a, u Point, t float64) Point {
	q := make(Point, len(a))
	for j := range q {
		q[j] = a[j] + t*u[j]
	}
	return q
}

func randomCenter(rng *sim.RNG, dim int, span float64) Point {
	c := make(Point, dim)
	for j := range c {
		c[j] = (rng.Float64()*2 - 1) * span
	}
	return c
}

// oracleSets generates the differential corpus for one dimension and
// radius: tight SPMD-like blobs, exact duplicates, mixed density around
// negative coordinates, lattices spaced exactly eps and exactly one cell
// side apart, and sets the grid cannot place (huge or non-finite
// coordinates).
func oracleSets(rng *sim.RNG, dim int, eps float64) []oracleSet {
	var sets []oracleSet
	side := eps / math.Sqrt(float64(dim)) * 0.999
	add := func(name string, pts []Point) {
		rng.Shuffle(len(pts), func(i, j int) { pts[i], pts[j] = pts[j], pts[i] })
		sets = append(sets, oracleSet{fmt.Sprintf("%s/dim=%d/eps=%g", name, dim, eps), pts})
	}

	var tight []Point
	for k := 0; k < 3; k++ {
		tight = append(tight, blobAt(rng, 40+rng.Intn(120), randomCenter(rng, dim, 4*eps), eps*1e-3)...)
	}
	add("tight-blobs", tight)

	var dup []Point
	for k := 0; k < 6; k++ {
		p := randomCenter(rng, dim, 3*eps)
		for r := rng.Intn(10); r >= 0; r-- {
			dup = append(dup, append(Point(nil), p...))
		}
	}
	dup = append(dup, blobAt(rng, 30, randomCenter(rng, dim, 3*eps), eps/4)...)
	add("duplicates", dup)

	var mixed []Point
	mixed = append(mixed, blobAt(rng, 120, randomCenter(rng, dim, 2*eps), eps/20)...)
	mixed = append(mixed, blobAt(rng, 80, randomCenter(rng, dim, 2*eps), eps)...)
	for k := 0; k < 40; k++ {
		mixed = append(mixed, randomCenter(rng, dim, 6*eps))
	}
	for _, p := range mixed {
		for j := range p {
			p[j] -= 5 * eps // straddle the origin and go negative
		}
	}
	add("mixed-density", mixed)

	for _, spacing := range []float64{eps, side} {
		extent := 6
		if dim >= 4 {
			extent = 3
		}
		var lat []Point
		idx := make([]int, dim)
		for {
			p := make(Point, dim)
			for j := range p {
				p[j] = float64(idx[j]-extent/2) * spacing
			}
			lat = append(lat, p)
			j := 0
			for ; j < dim; j++ {
				if idx[j]++; idx[j] < extent {
					break
				}
				idx[j] = 0
			}
			if j == dim || len(lat) >= 400 {
				break
			}
		}
		add(fmt.Sprintf("lattice-%.4g", spacing), lat)
	}

	// Companions at eps·(1+δ) from small anchor groups probe both edges
	// of the predicate along random directions.
	var shell []Point
	for k := 0; k < 10; k++ {
		a := randomCenter(rng, dim, 4*eps)
		for r := rng.Intn(4); r >= 0; r-- {
			shell = append(shell, a)
		}
		for _, delta := range []float64{-1e-3, -1e-9, 0, 1e-12, 1e-9, 1e-6, 1e-3, 5e-3} {
			shell = append(shell, along(a, unit(rng, dim), eps*(1+delta)))
		}
	}
	add("eps-shell", shell)

	// Pairs just inside and just outside eps of a group, in one cell. The
	// group point has 8 neighbours and the inner point 6, so at MinPts 7
	// or 8 the outer point is noise; at MinPts 9 everything is. Counting
	// or claiming the pair's cell wholesale on a loose bounding-box test
	// would get either wrong.
	var edge []Point
	for _, delta := range []float64{1e-3, 1e-6, 1e-9} {
		a, u := randomCenter(rng, dim, 8*eps), unit(rng, dim)
		for r := 0; r < 4; r++ {
			edge = append(edge, a)
		}
		for r := 0; r < 3; r++ {
			edge = append(edge, along(a, u, -eps/2))
		}
		edge = append(edge, along(a, u, eps*(1-delta)), along(a, u, eps*(1+delta)))
	}
	add("edge-pairs", edge)

	// Diagonals out of the grid's corner at the origin, which every cell
	// side shares: the companions are just out of reach of their anchor
	// group, but a cell side a little over eps/√d would put them in its
	// cell and make them neighbours.
	var diag []Point
	for _, sign := range []float64{1, -1} {
		u := make(Point, dim)
		for j := range u {
			u[j] = sign / math.Sqrt(float64(dim))
		}
		a := along(make(Point, dim), u, 1e-9*eps)
		for r := 0; r < 9; r++ {
			diag = append(diag, a)
		}
		for _, delta := range []float64{1e-6, 1e-3, 5e-3} {
			diag = append(diag, along(a, u, eps*(1+delta)))
		}
	}
	add("cell-diagonal", diag)

	odd := blobAt(rng, 60, randomCenter(rng, dim, eps), eps/3)
	odd[3][0] = math.NaN()
	odd[7][dim-1] = math.Inf(1)
	odd[11][0] = math.Inf(-1)
	add("non-finite", odd)
	huge := blobAt(rng, 60, randomCenter(rng, dim, eps), eps/3)
	huge[5][0] = 1e300
	huge[9][0] = 1e300
	add("huge-coordinates", huge)
	return sets
}

// TestDBSCANMatchesOracle compares DBSCAN and Refine against the brute-force
// oracles — labels, DBSCAN expansions and refinement rounds — over
// generated sets in 1 to maxGridDim+2 dimensions with MinPts 1 to 9.
func TestDBSCANMatchesOracle(t *testing.T) {
	rng := sim.NewRNG(16)
	cases := 0
	for dim := 1; dim <= maxGridDim+2; dim++ {
		for _, eps := range []float64{0.05, 0.3} {
			for _, set := range oracleSets(rng, dim, eps) {
				for minPts := 1; minPts <= 9; minPts++ {
					reg := obs.NewRegistry()
					ctx := obs.WithMetrics(context.Background(), reg)
					opt := DBSCANOptions{Eps: eps, MinPts: minPts}
					got, err := DBSCANContext(ctx, set.pts, opt)
					if err != nil {
						t.Fatal(err)
					}
					want, wantEx := oracleDBSCAN(set.pts, opt)
					if d := firstDiff(got, want); d != "" {
						t.Fatalf("%s MinPts=%d: DBSCAN %s", set.name, minPts, d)
					}
					if ex := reg.Counter(obs.MetricDBSCANExpansions, "").Value(); ex != wantEx {
						t.Fatalf("%s MinPts=%d: %d DBSCAN expansions, oracle %d", set.name, minPts, ex, wantEx)
					}
				}

				// The ladder is costlier; each set runs it at one MinPts.
				minPts := 1 + cases%9
				cases++
				reg := obs.NewRegistry()
				ctx := obs.WithMetrics(context.Background(), reg)
				ropt := RefineOptions{MinPts: minPts, EpsMax: 4 * eps, Steps: 5}
				got, err := RefineContext(ctx, set.pts, ropt)
				if err != nil {
					t.Fatal(err)
				}
				want, wantRounds, wantEx := oracleRefine(set.pts, ropt)
				if d := firstDiff(got, want); d != "" {
					t.Fatalf("%s MinPts=%d: Refine %s", set.name, minPts, d)
				}
				if r := reg.Counter(obs.MetricRefineRounds, "").Value(); r != wantRounds {
					t.Fatalf("%s MinPts=%d: %d refine rounds, oracle %d", set.name, minPts, r, wantRounds)
				}
				if ex := reg.Counter(obs.MetricDBSCANExpansions, "").Value(); ex != wantEx {
					t.Fatalf("%s MinPts=%d: %d refine expansions, oracle %d", set.name, minPts, ex, wantEx)
				}
			}
		}
	}
	t.Logf("%d point sets agree with the oracle", cases)
}

// firstDiff describes the first label that differs, "" when none does.
func firstDiff(got, want []int) string {
	if len(got) != len(want) {
		return fmt.Sprintf("%d labels, oracle %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			return fmt.Sprintf("point %d labelled %d, oracle %d", i, got[i], want[i])
		}
	}
	return ""
}

// TestDBSCANSeedOutsideOwnNeighbourhood covers the one seed that is not
// its own neighbour: a point with an infinite coordinate under an eps
// whose square overflows, so that an infinite distance still passes
// dist2 <= eps² while its distance to itself is NaN. At MinPts 2 the seed
// (+Inf, 0) is core, its two neighbours are not (they are NaN apart), and
// nothing but the seed itself can give it its cluster.
func TestDBSCANSeedOutsideOwnNeighbourhood(t *testing.T) {
	inf := math.Inf(1)
	pts := []Point{{inf, 0}, {-inf, 0}, {-inf, 5}, {0, 0}, {math.NaN(), 0}}
	for _, set := range [][]Point{pts[:3], pts} {
		for minPts := 1; minPts <= 5; minPts++ {
			opt := DBSCANOptions{Eps: 1e200, MinPts: minPts}
			got, err := DBSCAN(set, opt)
			if err != nil {
				t.Fatal(err)
			}
			want, _ := oracleDBSCAN(set, opt)
			if d := firstDiff(got, want); d != "" {
				t.Fatalf("%d points, MinPts=%d: %s", len(set), minPts, d)
			}
		}
	}
}
