package align

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"testing"
	"time"

	"phasefold/internal/sim"
)

// The oracle is the textbook implementation this package used before the
// suffix trim and the direction-byte traceback: a full (n+1)×(m+1) score
// table, a traceback that re-derives each move from the scores (diagonal,
// then up, then left), a map-based consensus, and the same star-shaped
// progressive alignment on top. The production code must reproduce its
// gapped rows, scores and SPMD scores exactly.

func oraclePairwise(a, b []int, sc Scoring) (ga, gb []int, score int) {
	n, m := len(a), len(b)
	w := m + 1
	dp := make([]int, (n+1)*w)
	for j := 1; j <= m; j++ {
		dp[j] = j * sc.GapOpen
	}
	for i := 1; i <= n; i++ {
		dp[i*w] = i * sc.GapOpen
		for j := 1; j <= m; j++ {
			sub := dp[(i-1)*w+j-1]
			if a[i-1] == b[j-1] {
				sub += sc.Match
			} else {
				sub += sc.Mismatch
			}
			del := dp[(i-1)*w+j] + sc.GapOpen
			ins := dp[i*w+j-1] + sc.GapOpen
			best := sub
			if del > best {
				best = del
			}
			if ins > best {
				best = ins
			}
			dp[i*w+j] = best
		}
	}
	i, j := n, m
	var ra, rb []int
	for i > 0 || j > 0 {
		switch {
		case i > 0 && j > 0 && dp[i*w+j] == dp[(i-1)*w+j-1]+oracleMatchScore(a[i-1], b[j-1], sc):
			ra = append(ra, a[i-1])
			rb = append(rb, b[j-1])
			i--
			j--
		case i > 0 && dp[i*w+j] == dp[(i-1)*w+j]+sc.GapOpen:
			ra = append(ra, a[i-1])
			rb = append(rb, Gap)
			i--
		default:
			ra = append(ra, Gap)
			rb = append(rb, b[j-1])
			j--
		}
	}
	oracleReverse(ra)
	oracleReverse(rb)
	return ra, rb, dp[n*w+m]
}

func oracleMatchScore(x, y int, sc Scoring) int {
	if x == y {
		return sc.Match
	}
	return sc.Mismatch
}

func oracleReverse(s []int) {
	for i, j := 0, len(s)-1; i < j; i, j = i+1, j-1 {
		s[i], s[j] = s[j], s[i]
	}
}

func oracleProgressive(seqs [][]int, sc Scoring) (*MSA, error) {
	if len(seqs) == 0 {
		return nil, fmt.Errorf("align: no sequences")
	}
	center := 0
	for i, s := range seqs {
		if len(s) > len(seqs[center]) {
			center = i
		}
	}
	msa := &MSA{Rows: [][]int{append([]int(nil), seqs[center]...)}}
	order := make([]int, 0, len(seqs)-1)
	for i := range seqs {
		if i != center {
			order = append(order, i)
		}
	}
	rowOf := map[int]int{center: 0}
	for _, si := range order {
		cons := oracleConsensus(msa)
		gc, gs, _ := oraclePairwise(cons, seqs[si], sc)
		oracleInsertAligned(msa, gc, gs)
		rowOf[si] = len(msa.Rows) - 1
	}
	ordered := make([][]int, len(seqs))
	for si, row := range rowOf {
		ordered[si] = msa.Rows[row]
	}
	return &MSA{Rows: ordered}, nil
}

func oracleConsensus(m *MSA) []int {
	w := m.Width()
	out := make([]int, w)
	for c := 0; c < w; c++ {
		counts := make(map[int]int)
		for _, row := range m.Rows {
			if row[c] != Gap {
				counts[row[c]]++
			}
		}
		best, bestN := Gap, 0
		for sym, n := range counts {
			if n > bestN || (n == bestN && best != Gap && sym < best) {
				best, bestN = sym, n
			}
		}
		out[c] = best
	}
	return out
}

func oracleInsertAligned(m *MSA, gc, gs []int) {
	oldW := m.Width()
	newRows := make([][]int, len(m.Rows)+1)
	for r := range m.Rows {
		row := make([]int, 0, len(gc))
		oi := 0
		for k := range gc {
			if gc[k] == Gap {
				row = append(row, Gap)
				continue
			}
			if oi < oldW {
				row = append(row, m.Rows[r][oi])
				oi++
			} else {
				row = append(row, Gap)
			}
		}
		newRows[r] = row
	}
	newRows[len(m.Rows)] = append([]int(nil), gs...)
	m.Rows = newRows
}

// oracleSPMDScore is SPMDScore over the oracle consensus.
func oracleSPMDScore(m *MSA) float64 {
	w := m.Width()
	if w == 0 || len(m.Rows) == 0 {
		return 0
	}
	cons := oracleConsensus(m)
	agree, total := 0, 0
	for c := 0; c < w; c++ {
		if cons[c] == Gap {
			continue
		}
		for _, row := range m.Rows {
			total++
			if row[c] == cons[c] {
				agree++
			}
		}
	}
	if total == 0 {
		return 0
	}
	return float64(agree) / float64(total)
}

// oracleScorings mixes scorings that allow the suffix trim with ones that
// break either half of its condition (Match >= Mismatch, Match >=
// 2*GapOpen), where the production code must run the full DP.
var oracleScorings = []Scoring{
	DefaultScoring(),
	{Match: 1, Mismatch: 0, GapOpen: 0},
	{Match: 3, Mismatch: 3, GapOpen: -1},
	{Match: 2, Mismatch: -1, GapOpen: 1},
	{Match: 1, Mismatch: 3, GapOpen: -1},
	{Match: 0, Mismatch: -2, GapOpen: 1},
	{Match: 1, Mismatch: -1, GapOpen: 1},
}

// randomSeq draws n symbols from an alphabet of size alpha starting at lo.
// lo = -1 lets Gap itself appear as an input symbol.
func randomSeq(rng *sim.RNG, n, alpha, lo int) []int {
	s := make([]int, n)
	for i := range s {
		s[i] = lo + rng.Intn(alpha)
	}
	return s
}

// mutate returns a copy of s with a few random insertions, deletions and
// substitutions, so the pair shares long runs, prefixes and suffixes.
func mutate(rng *sim.RNG, s []int, alpha, lo int) []int {
	out := append([]int(nil), s...)
	for e := rng.Intn(4); e > 0; e-- {
		switch op := rng.Intn(3); {
		case op == 0:
			p := rng.Intn(len(out) + 1)
			out = append(out[:p], append([]int{lo + rng.Intn(alpha)}, out[p:]...)...)
		case op == 1 && len(out) > 0:
			p := rng.Intn(len(out))
			out = append(out[:p], out[p+1:]...)
		case len(out) > 0:
			out[rng.Intn(len(out))] = lo + rng.Intn(alpha)
		}
	}
	return out
}

// genPair draws one oracle input pair: independent random sequences or a
// sequence and a mutated copy, lengths 0–60, alphabets of 1–6 symbols.
func genPair(rng *sim.RNG) (a, b []int) {
	alpha, lo := 1+rng.Intn(6), -rng.Intn(2)
	a = randomSeq(rng, rng.Intn(61), alpha, lo)
	if rng.Intn(2) == 0 {
		return a, randomSeq(rng, rng.Intn(61), alpha, lo)
	}
	return a, mutate(rng, a, alpha, lo)
}

// sameInts compares element by element: an empty alignment may come back
// as nil from one implementation and as an empty slice from the other.
func sameInts(x, y []int) bool {
	return len(x) == len(y) && (len(x) == 0 || reflect.DeepEqual(x, y))
}

func TestPairwiseMatchesOracle(t *testing.T) {
	rng := sim.NewRNG(1701)
	for trial := 0; trial < 3000; trial++ {
		a, b := genPair(rng)
		for _, sc := range oracleScorings {
			ga, gb, score := Pairwise(a, b, sc)
			wa, wb, wscore := oraclePairwise(a, b, sc)
			if score != wscore || !sameInts(ga, wa) || !sameInts(gb, wb) {
				t.Fatalf("trial %d, scoring %+v, a=%v b=%v:\n got %v %v %d\nwant %v %v %d",
					trial, sc, a, b, ga, gb, score, wa, wb, wscore)
			}
		}
	}
}

func TestProgressiveMatchesOracle(t *testing.T) {
	rng := sim.NewRNG(1702)
	for trial := 0; trial < 1500; trial++ {
		alpha, lo := 1+rng.Intn(6), -rng.Intn(2)
		base := randomSeq(rng, rng.Intn(61), alpha, lo)
		seqs := make([][]int, 1+rng.Intn(8))
		for i := range seqs {
			switch rng.Intn(3) {
			case 0:
				seqs[i] = append([]int(nil), base...)
			case 1:
				seqs[i] = mutate(rng, base, alpha, lo)
			default:
				seqs[i] = randomSeq(rng, rng.Intn(61), alpha, lo)
			}
		}
		sc := oracleScorings[trial%len(oracleScorings)]
		got, err := Progressive(seqs, sc)
		if carriesGap(seqs) {
			if !errors.Is(err, ErrGapSymbol) {
				t.Fatalf("trial %d, seqs=%v: err %v, want ErrGapSymbol", trial, seqs, err)
			}
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		want, _ := oracleProgressive(seqs, sc)
		if !reflect.DeepEqual(got.Rows, want.Rows) {
			t.Fatalf("trial %d, scoring %+v, seqs=%v:\n got %v\nwant %v", trial, sc, seqs, got.Rows, want.Rows)
		}
		if g, w := got.SPMDScore(), oracleSPMDScore(want); g != w {
			t.Fatalf("trial %d: SPMDScore %v, oracle %v", trial, g, w)
		}
		if g, w := got.consensus(), oracleConsensus(want); !reflect.DeepEqual(g, w) {
			t.Fatalf("trial %d: consensus %v, oracle %v", trial, g, w)
		}
	}
}

// carriesGap reports whether any sequence carries the Gap symbol, which
// Progressive rejects.
func carriesGap(seqs [][]int) bool {
	for _, s := range seqs {
		for _, v := range s {
			if v == Gap {
				return true
			}
		}
	}
	return false
}

// TestProgressiveSkipsEmptyMatchesOracle holds the empty-sequence shortcut
// to the oracle, which aligns every sequence, over random mixes of empty
// and non-empty sequences, plus the all-empty and empty-first cases. Inputs
// that carry the Gap symbol must be rejected instead.
func TestProgressiveSkipsEmptyMatchesOracle(t *testing.T) {
	rng := sim.NewRNG(1703)
	cases := [][][]int{
		{nil},
		{nil, nil, nil},
		{nil, {1, 2, 3}, {1, 2}},
		{{}, nil, {4, 4, 5}, nil, {4, 5}},
	}
	for trial := 0; trial < 1500; trial++ {
		alpha, lo := 1+rng.Intn(6), -rng.Intn(2)
		base := randomSeq(rng, 1+rng.Intn(60), alpha, lo)
		seqs := make([][]int, 1+rng.Intn(12))
		for i := range seqs {
			switch rng.Intn(4) {
			case 0:
				seqs[i] = append([]int(nil), base...)
			case 1:
				seqs[i] = mutate(rng, base, alpha, lo)
			default:
				// left empty, as a rank with no records
			}
		}
		cases = append(cases, seqs)
	}
	for n, seqs := range cases {
		sc := oracleScorings[n%len(oracleScorings)]
		got, err := Progressive(seqs, sc)
		if carriesGap(seqs) {
			if !errors.Is(err, ErrGapSymbol) {
				t.Fatalf("case %d, seqs=%v: err %v, want ErrGapSymbol", n, seqs, err)
			}
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		want, _ := oracleProgressive(seqs, sc)
		if len(got.Rows) != len(want.Rows) {
			t.Fatalf("case %d: %d rows, oracle %d", n, len(got.Rows), len(want.Rows))
		}
		for r := range got.Rows {
			if !sameInts(got.Rows[r], want.Rows[r]) {
				t.Fatalf("case %d, scoring %+v, seqs=%v:\n got %v\nwant %v", n, sc, seqs, got.Rows, want.Rows)
			}
		}
		if g, w := got.SPMDScore(), oracleSPMDScore(want); g != w {
			t.Fatalf("case %d: SPMDScore %v, oracle %v", n, g, w)
		}
	}
}

// TestProgressiveManyEmptyRanks aligns two ranks of 60 symbols among 4647
// ranks with no records: only the two real sequences cost alignment work.
func TestProgressiveManyEmptyRanks(t *testing.T) {
	seq := randomSeq(sim.NewRNG(6), 60, 4, 0)
	seqs := make([][]int, 4649)
	seqs[17], seqs[3000] = seq, mutate(sim.NewRNG(7), seq, 4, 0)
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	msa, err := ProgressiveContext(ctx, seqs, DefaultScoring())
	if err != nil {
		t.Fatalf("aligning 2 of 4649 ranks: %v", err)
	}
	w := msa.Width()
	for r, row := range msa.Rows {
		if len(row) != w {
			t.Fatalf("row %d has width %d, want %d", r, len(row), w)
		}
	}
	if got := msa.SPMDScore(); got <= 0 || got > 2.0/4649 {
		t.Fatalf("SPMDScore %v, want in (0, 2/4649]", got)
	}
}

func TestProgressiveContextCancels(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	seq := randomSeq(sim.NewRNG(3), 50, 4, 0)
	if _, err := ProgressiveContext(ctx, [][]int{seq, seq}, DefaultScoring()); !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled progressive alignment returned %v, want context.Canceled", err)
	}
	// A pair longer than the poll interval, with no common suffix, stops
	// inside the DP.
	a := randomSeq(sim.NewRNG(4), 2*pollRows, 4, 0)
	b := append(randomSeq(sim.NewRNG(5), 2*pollRows, 4, 0), 9)
	if _, _, _, err := pairwise(ctx, a, b, DefaultScoring()); !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled pairwise alignment returned %v, want context.Canceled", err)
	}
}
