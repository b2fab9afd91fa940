package cluster

import (
	"testing"

	"phasefold/internal/sim"
)

func benchPoints(n, k int) []Point {
	rng := sim.NewRNG(5)
	pts := make([]Point, 0, n)
	per := n / k
	for c := 0; c < k; c++ {
		cx, cy := rng.Float64(), rng.Float64()
		pts = append(pts, blob(rng, per, cx, cy, 0.01)...)
	}
	return pts
}

func BenchmarkDBSCAN1k(b *testing.B) {
	pts := benchPoints(1000, 5)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := DBSCAN(pts, DBSCANOptions{Eps: 0.04, MinPts: 4}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDBSCAN10k(b *testing.B) {
	pts := benchPoints(10000, 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := DBSCAN(pts, DBSCANOptions{Eps: 0.04, MinPts: 4}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRefine10k(b *testing.B) {
	pts := benchPoints(10000, 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Refine(pts, DefaultRefineOptions()); err != nil {
			b.Fatal(err)
		}
	}
}

// spmdBlobs is the shape of a 400-iteration cg trace's features: three
// 2-D blobs of 3200, 1600 and 1600 near-identical points, one per code
// region, as SPMD ranks running the same region produce.
func spmdBlobs() []Point {
	rng := sim.NewRNG(400)
	var pts []Point
	pts = append(pts, blob(rng, 3200, 0.20, 0.70, 0.001)...)
	pts = append(pts, blob(rng, 1600, 0.55, 0.30, 0.001)...)
	pts = append(pts, blob(rng, 1600, 0.80, 0.75, 0.001)...)
	rng.Shuffle(len(pts), func(i, j int) { pts[i], pts[j] = pts[j], pts[i] })
	return pts
}

func BenchmarkRefineSPMDBlobs(b *testing.B) {
	pts := spmdBlobs()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Refine(pts, DefaultRefineOptions()); err != nil {
			b.Fatal(err)
		}
	}
}
