package align

import (
	"testing"

	"phasefold/internal/sim"
)

// BenchmarkProgressiveSPMD aligns four identical 1600-symbol rank
// sequences: the shape of a 4-rank, 400-iteration cg trace, where every
// SPMD rank runs the same region sequence.
func BenchmarkProgressiveSPMD(b *testing.B) {
	seq := randomSeq(sim.NewRNG(11), 1600, 4, 0)
	seqs := [][]int{seq, seq, seq, seq}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		msa, err := Progressive(seqs, DefaultScoring())
		if err != nil || msa.SPMDScore() != 1 {
			b.Fatal("identical rows did not align perfectly")
		}
	}
}

// benchScore keeps the benchmarked alignment from being optimized away.
var benchScore int

// BenchmarkPairwiseDiverged aligns two unrelated 1600-symbol sequences that
// end in different symbols, so nothing can be trimmed and the full DP runs.
func BenchmarkPairwiseDiverged(b *testing.B) {
	x := append(randomSeq(sim.NewRNG(12), 1599, 4, 0), 4)
	y := append(randomSeq(sim.NewRNG(13), 1599, 4, 0), 5)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _, benchScore = Pairwise(x, y, DefaultScoring())
	}
}
