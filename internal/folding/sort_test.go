package folding

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"time"
)

// checkSortsInTime sorts the keys of a cloud with X values xs and requires
// the (X, index) order within limit. A quadratic per-bucket sort would take
// minutes on 2²⁰ points that share one bucket; the bucket sort falls back
// to an O(n log n) sort there and takes well under a second.
func checkSortsInTime(t *testing.T, xs []float64, limit time.Duration) []xKey {
	t.Helper()
	pts := make([]Point, len(xs))
	for i, x := range xs {
		pts[i].X = x
	}
	done := make(chan time.Duration, 1)
	var keys []xKey
	go func() {
		start := time.Now()
		keys = new(foldScratch).pointKeys(pts)
		done <- time.Since(start)
	}()
	select {
	case took := <-done:
		t.Logf("%d points sorted in %v", len(xs), took)
	case <-time.After(limit):
		t.Fatalf("%d points not sorted within %v", len(xs), limit)
	}
	if !slices.IsSortedFunc(keys, cmpKey) {
		t.Fatal("keys not in (X, index) order")
	}
	seen := make([]bool, len(keys))
	for _, k := range keys {
		if seen[k.i] {
			t.Fatalf("index %d twice", k.i)
		}
		seen[k.i] = true
	}
	return keys
}

// TestBucketSortAllEqualX sorts 2²⁰ points whose X are all equal: one bucket
// holds them all, ordered by index alone.
func TestBucketSortAllEqualX(t *testing.T) {
	xs := make([]float64, 1<<20)
	for i := range xs {
		xs[i] = 0.5
	}
	for k, key := range checkSortsInTime(t, xs, 10*time.Second) {
		if key.i != k {
			t.Fatalf("position %d holds index %d: equal X must keep their order", k, key.i)
		}
	}
}

// TestBucketSortOneBucket sorts 2²⁰ distinct, shuffled X that all fall inside
// one bucket's width.
func TestBucketSortOneBucket(t *testing.T) {
	const n = 1 << 20
	nb := float64(n / 2)
	r := rand.New(rand.NewSource(20))
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = (1000 + 0.1 + 0.8*r.Float64()) / nb
	}
	checkSortsInTime(t, xs, 10*time.Second)
}

// TestBucketSortEdges covers X the projections never make but a sort must
// still order: outside [0, 1], infinite, NaN (first, as cmp.Compare orders
// it) and negative zero (equal to zero, so index order).
func TestBucketSortEdges(t *testing.T) {
	xs := []float64{1, 0, math.Inf(1), -1, 0.5, math.NaN(), 2, math.Inf(-1), 0.25, 1, 0, math.Copysign(0, -1)}
	r := rand.New(rand.NewSource(3))
	for trial := 0; trial < 200; trial++ {
		n := r.Intn(40)
		pts := make([]Point, n)
		want := make([]xKey, n)
		for i := range pts {
			pts[i].X = xs[r.Intn(len(xs))]
			want[i] = xKey{x: pts[i].X, i: i}
		}
		slices.SortStableFunc(want, cmpKey)
		keys := new(foldScratch).pointKeys(pts)
		for k := range keys {
			if keys[k].i != want[k].i {
				t.Fatalf("trial %d: position %d holds index %d, want %d", trial, k, keys[k].i, want[k].i)
			}
		}
	}
}

// TestSortCloudsNoAllocs pins the sort's scratch discipline: once a
// scratch has grown, sorting a cluster's clouds — shared and own sorts,
// stack timeline included — allocates nothing.
func TestSortCloudsNoAllocs(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	sc := new(foldScratch)
	for trial := 0; trial < 50; trial++ {
		f := genClouds(r)
		sortClouds(f, sc)
		if allocs := testing.AllocsPerRun(5, func() { sortClouds(f, sc) }); allocs != 0 {
			t.Fatalf("trial %d: %.0f allocations per sort, want 0", trial, allocs)
		}
	}
}
