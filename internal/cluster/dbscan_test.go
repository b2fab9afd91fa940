package cluster

import (
	"math"
	"testing"

	"phasefold/internal/sim"
)

// blob generates n points around (cx, cy) with the given radius.
func blob(rng *sim.RNG, n int, cx, cy, radius float64) []Point {
	out := make([]Point, n)
	for i := range out {
		out[i] = Point{cx + rng.Normal(0, radius), cy + rng.Normal(0, radius)}
	}
	return out
}

func TestDBSCANSeparatesBlobs(t *testing.T) {
	rng := sim.NewRNG(1)
	var pts []Point
	pts = append(pts, blob(rng, 100, 0, 0, 0.02)...)
	pts = append(pts, blob(rng, 100, 1, 1, 0.02)...)
	pts = append(pts, blob(rng, 100, 0, 1, 0.02)...)
	labels, err := DBSCAN(pts, DBSCANOptions{Eps: 0.1, MinPts: 5})
	if err != nil {
		t.Fatal(err)
	}
	if got := NumClusters(labels); got != 3 {
		t.Fatalf("found %d clusters, want 3", got)
	}
	// Each blob must be label-pure.
	for b := 0; b < 3; b++ {
		first := labels[b*100]
		for i := 1; i < 100; i++ {
			if labels[b*100+i] != first {
				t.Fatalf("blob %d split across labels", b)
			}
		}
	}
}

func TestDBSCANMarksOutliersNoise(t *testing.T) {
	rng := sim.NewRNG(2)
	pts := blob(rng, 50, 0, 0, 0.01)
	pts = append(pts, Point{5, 5}, Point{-3, 4}) // lone outliers
	labels, err := DBSCAN(pts, DBSCANOptions{Eps: 0.1, MinPts: 5})
	if err != nil {
		t.Fatal(err)
	}
	if labels[50] != Noise || labels[51] != Noise {
		t.Fatalf("outliers labelled %d, %d; want Noise", labels[50], labels[51])
	}
	if _, noise := Sizes(labels); noise != 2 {
		t.Fatalf("noise count %d, want 2", noise)
	}
}

func TestDBSCANAllNoiseWhenSparse(t *testing.T) {
	pts := []Point{{0, 0}, {10, 10}, {20, 20}}
	labels, err := DBSCAN(pts, DBSCANOptions{Eps: 0.5, MinPts: 2})
	if err != nil {
		t.Fatal(err)
	}
	for i, l := range labels {
		if l != Noise {
			t.Fatalf("sparse point %d labelled %d", i, l)
		}
	}
}

func TestDBSCANEmptyInput(t *testing.T) {
	labels, err := DBSCAN(nil, DBSCANOptions{Eps: 1, MinPts: 1})
	if err != nil || len(labels) != 0 {
		t.Fatalf("empty input: labels=%v err=%v", labels, err)
	}
}

func TestDBSCANValidation(t *testing.T) {
	if _, err := DBSCAN(nil, DBSCANOptions{Eps: 0, MinPts: 1}); err == nil {
		t.Fatal("eps 0 accepted")
	}
	if _, err := DBSCAN(nil, DBSCANOptions{Eps: 1, MinPts: 0}); err == nil {
		t.Fatal("MinPts 0 accepted")
	}
	if _, err := DBSCAN([]Point{{1, 2}, {1}}, DBSCANOptions{Eps: 1, MinPts: 1}); err == nil {
		t.Fatal("mixed-dimension points accepted")
	}
}

func TestDBSCANDeterminism(t *testing.T) {
	rng := sim.NewRNG(9)
	pts := append(blob(rng, 80, 0, 0, 0.05), blob(rng, 80, 1, 0, 0.05)...)
	a, _ := DBSCAN(pts, DBSCANOptions{Eps: 0.2, MinPts: 4})
	b, _ := DBSCAN(pts, DBSCANOptions{Eps: 0.2, MinPts: 4})
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("DBSCAN not deterministic")
		}
	}
}

// bruteNeighbors is the O(n²) reference for the cell index.
func bruteNeighbors(pts []Point, i int, eps float64) map[int]bool {
	out := make(map[int]bool)
	for j := range pts {
		if dist2(pts[i], pts[j]) <= eps*eps {
			out[j] = true
		}
	}
	return out
}

// regionQuery lists the eps-neighbours of pts[i] (i included) as the cell
// index sees them: every member of its own cell without a distance check
// when the grid places points exactly, every other candidate drawn from
// the neighbour cells by distance.
func (x *cellIndex) regionQuery(i int) []int {
	c := x.cellOf[i]
	var out []int
	for _, d := range x.adj[x.adjAt[c]:x.adjAt[c+1]] {
		for _, q := range x.members[x.start[d]:x.start[d+1]] {
			if (d == c && x.near) || dist2(x.pts[i], x.pts[q]) <= x.eps2 {
				out = append(out, q)
			}
		}
	}
	return out
}

// checkRegionQueries asserts every region query through the cell index
// equals brute force, and that each neighbour cell's box bounds hold for
// every member.
func checkRegionQueries(t *testing.T, pts []Point, eps float64) {
	t.Helper()
	var x cellIndex
	x.build(pts, eps)
	for i := range pts {
		c := x.cellOf[i]
		for _, d := range x.adj[x.adjAt[c]:x.adjAt[c+1]] {
			lo, hi := x.bounds(i, d)
			for _, q := range x.members[x.start[d]:x.start[d+1]] {
				if d2 := dist2(pts[i], pts[q]); d2 < lo || d2 > hi {
					t.Fatalf("point %d: dist2 %v to %d outside its cell bounds [%v, %v]", i, d2, q, lo, hi)
				}
			}
		}
		got := x.regionQuery(i)
		want := bruteNeighbors(pts, i, eps)
		if len(got) != len(want) {
			t.Fatalf("point %d: index %d neighbors, brute %d", i, len(got), len(want))
		}
		for _, j := range got {
			if !want[j] {
				t.Fatalf("point %d: index found non-neighbor %d", i, j)
			}
		}
	}
}

func TestCellIndexMatchesBruteForce(t *testing.T) {
	rng := sim.NewRNG(4)
	pts := make([]Point, 300)
	for i := range pts {
		pts[i] = Point{rng.Float64(), rng.Float64(), rng.Float64()}
	}
	checkRegionQueries(t, pts, 0.15)
}

func TestCellIndexNegativeCoordinates(t *testing.T) {
	// Cell placement must work for negative coordinates too.
	pts := []Point{{-1.01, -1.01}, {-1.02, -1.02}, {1, 1}}
	var x cellIndex
	x.build(pts, 0.1)
	if n := x.regionQuery(0); len(n) != 2 {
		t.Fatalf("negative-coordinate neighbors = %d, want 2", len(n))
	}
	checkRegionQueries(t, pts, 0.1)
}

func TestVaryingDensityFailureMode(t *testing.T) {
	// The motivating case for refinement: one tight blob and one diffuse
	// blob. A single eps either merges or shatters one of them.
	rng := sim.NewRNG(7)
	var pts []Point
	pts = append(pts, blob(rng, 150, 0, 0, 0.01)...)   // tight
	pts = append(pts, blob(rng, 150, 0.5, 0, 0.08)...) // diffuse
	smallEps, _ := DBSCAN(pts, DBSCANOptions{Eps: 0.03, MinPts: 5})
	_, noiseSmall := Sizes(smallEps)
	// With eps tuned for the tight blob, much of the diffuse blob is lost.
	if noiseSmall < 10 {
		t.Skipf("diffuse blob unexpectedly dense (noise=%d); geometry changed", noiseSmall)
	}
	sizes, _ := Sizes(smallEps)
	if len(sizes) == 0 {
		t.Fatal("tight blob not found at small eps")
	}
	if got := math.Abs(float64(sizes[0] - 150)); got > 20 {
		t.Logf("tight blob size %d (tolerated)", sizes[0])
	}
}

// TestDBSCANHighDimensionalFallback drives point sets past the grid index's
// fixed dimensionality (maxGridDim), where neighbourhood queries fall back
// to a linear scan: labels must come out exactly as in the gridded regime.
func TestDBSCANHighDimensionalFallback(t *testing.T) {
	rng := sim.NewRNG(3)
	dim := maxGridDim + 2
	pad := func(pts []Point) []Point {
		out := make([]Point, len(pts))
		for i, p := range pts {
			q := make(Point, dim)
			copy(q, p)
			out[i] = q
		}
		return out
	}
	var pts []Point
	pts = append(pts, blob(rng, 60, 0, 0, 0.02)...)
	pts = append(pts, blob(rng, 60, 1, 1, 0.02)...)
	want, err := DBSCAN(pts, DBSCANOptions{Eps: 0.1, MinPts: 5})
	if err != nil {
		t.Fatal(err)
	}
	got, err := DBSCAN(pad(pts), DBSCANOptions{Eps: 0.1, MinPts: 5})
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("point %d: label %d gridded vs %d high-dimensional", i, want[i], got[i])
		}
	}
}
