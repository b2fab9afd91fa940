package align

import (
	"errors"
	"reflect"
	"testing"
)

func TestPairwiseIdentical(t *testing.T) {
	a := []int{1, 2, 3, 4}
	ga, gb, score := Pairwise(a, a, DefaultScoring())
	if !reflect.DeepEqual(ga, a) || !reflect.DeepEqual(gb, a) {
		t.Fatalf("identical alignment introduced gaps: %v %v", ga, gb)
	}
	if score != 4*DefaultScoring().Match {
		t.Fatalf("score %d, want %d", score, 4*DefaultScoring().Match)
	}
}

func TestPairwiseInsertsGap(t *testing.T) {
	a := []int{1, 2, 3}
	b := []int{1, 3}
	ga, gb, _ := Pairwise(a, b, DefaultScoring())
	if len(ga) != len(gb) {
		t.Fatal("gapped lengths differ")
	}
	if len(ga) != 3 {
		t.Fatalf("alignment length %d, want 3", len(ga))
	}
	// b must have exactly one gap, aligned against a's 2.
	gaps := 0
	for i := range gb {
		if gb[i] == Gap {
			gaps++
			if ga[i] != 2 {
				t.Fatalf("gap aligned to %d, want 2", ga[i])
			}
		}
	}
	if gaps != 1 {
		t.Fatalf("%d gaps, want 1", gaps)
	}
}

func TestPairwiseEmptySequences(t *testing.T) {
	ga, gb, score := Pairwise(nil, []int{1, 2}, DefaultScoring())
	if len(ga) != 2 || ga[0] != Gap || ga[1] != Gap {
		t.Fatalf("empty-vs-seq alignment: %v %v", ga, gb)
	}
	if score != 2*DefaultScoring().GapOpen {
		t.Fatalf("score %d", score)
	}
}

func TestPairwisePreservesSymbols(t *testing.T) {
	a := []int{5, 7, 5, 9}
	b := []int{7, 5, 9, 9}
	ga, gb, _ := Pairwise(a, b, DefaultScoring())
	// Removing gaps must reproduce the originals.
	degap := func(s []int) []int {
		var out []int
		for _, v := range s {
			if v != Gap {
				out = append(out, v)
			}
		}
		return out
	}
	if !reflect.DeepEqual(degap(ga), a) || !reflect.DeepEqual(degap(gb), b) {
		t.Fatalf("alignment corrupted sequences: %v %v", ga, gb)
	}
}

func TestProgressiveIdenticalRows(t *testing.T) {
	seq := []int{0, 1, 2, 0, 1, 2}
	msa, err := Progressive([][]int{seq, seq, seq, seq}, DefaultScoring())
	if err != nil {
		t.Fatal(err)
	}
	if got := msa.SPMDScore(); got != 1 {
		t.Fatalf("identical sequences score %v, want 1", got)
	}
	if msa.Width() != len(seq) {
		t.Fatalf("width %d, want %d", msa.Width(), len(seq))
	}
}

func TestProgressiveOneDeviantRow(t *testing.T) {
	good := []int{0, 1, 2, 0, 1, 2, 0, 1, 2}
	bad := []int{0, 1, 2, 0, 9, 2, 0, 1, 2} // one substitution
	msa, err := Progressive([][]int{good, good, good, bad}, DefaultScoring())
	if err != nil {
		t.Fatal(err)
	}
	score := msa.SPMDScore()
	if score >= 1 || score < 0.9 {
		t.Fatalf("one-substitution score %v, want in [0.9, 1)", score)
	}
}

func TestProgressiveHandlesMissingRegion(t *testing.T) {
	full := []int{0, 1, 2, 3, 0, 1, 2, 3}
	short := []int{0, 1, 3, 0, 1, 3} // rank skipping region 2
	msa, err := Progressive([][]int{full, full, short}, DefaultScoring())
	if err != nil {
		t.Fatal(err)
	}
	if msa.Width() < len(full) {
		t.Fatalf("width %d shrank below longest sequence", msa.Width())
	}
	score := msa.SPMDScore()
	if score < 0.7 || score >= 1 {
		t.Fatalf("missing-region score %v, want in [0.7, 1)", score)
	}
}

func TestProgressiveRowOrderPreserved(t *testing.T) {
	s0 := []int{1, 1, 1}
	s1 := []int{2, 2, 2, 2, 2} // longest: becomes the center
	s2 := []int{3, 3, 3}
	msa, err := Progressive([][]int{s0, s1, s2}, DefaultScoring())
	if err != nil {
		t.Fatal(err)
	}
	// Row i must correspond to input i (checked via the symbol sets).
	for i, want := range []int{1, 2, 3} {
		found := false
		for _, v := range msa.Rows[i] {
			if v == want {
				found = true
			}
			if v != want && v != Gap {
				t.Fatalf("row %d contains foreign symbol %d", i, v)
			}
		}
		if !found {
			t.Fatalf("row %d lost its symbols", i)
		}
	}
}

func TestProgressiveEmpty(t *testing.T) {
	if _, err := Progressive(nil, DefaultScoring()); err == nil {
		t.Fatal("empty input accepted")
	}
}

// TestProgressiveRejectsGapSymbol: a Gap (−1) among the input symbols used
// to be read back as an inserted gap column, dropping real columns (row 1
// came back as [0 -1 -1 -1 -1 -1 -1 -1 -1]).
func TestProgressiveRejectsGapSymbol(t *testing.T) {
	seqs := [][]int{{}, {0, -1, -1, 0, 0, 0, -1, 0, -1}, {-1}}
	msa, err := Progressive(seqs, Scoring{Match: 1, Mismatch: 3, GapOpen: -1})
	if !errors.Is(err, ErrGapSymbol) {
		t.Fatalf("Progressive(%v) = %v, %v; want ErrGapSymbol", seqs, msa, err)
	}
}

func TestSPMDScoreEmptyMSA(t *testing.T) {
	m := &MSA{}
	if m.SPMDScore() != 0 {
		t.Fatal("empty MSA score not 0")
	}
}

func TestConsensus(t *testing.T) {
	m := &MSA{Rows: [][]int{
		{1, 2, Gap},
		{1, 3, Gap},
		{1, 2, Gap},
	}}
	c := m.consensus()
	if c[0] != 1 || c[1] != 2 || c[2] != Gap {
		t.Fatalf("consensus = %v", c)
	}
}
