// Package align scores the quality of a structure detection by sequence
// alignment, following the evaluation method of González et al. (PDCAT
// 2009): under the SPMD paradigm every rank executes the same sequence of
// computation regions, so if clustering recovered the true structure, the
// per-rank sequences of cluster labels must align almost perfectly. The
// package implements Needleman-Wunsch pairwise global alignment and a
// star-shaped progressive multiple alignment, from which it derives an
// SPMD-ness score in [0,1].
//
// Pairwise returns exactly the textbook result: the full score table with a
// traceback that prefers the diagonal, then a gap in b (up), then a gap in a
// (left). Two things make it cheap on SPMD input, where rank sequences are
// usually identical:
//
//   - Suffix trim. When Match >= Mismatch and Match >= 2*GapOpen (true for
//     DefaultScoring), appending one symbol to either sequence raises the
//     optimum by at most Match-GapOpen, so a cell whose symbols match always
//     scores its diagonal predecessor plus Match and the traceback walks it
//     diagonally. A common suffix therefore aligns symbol to symbol, and
//     the cells before it never look at it: the DP runs on what precedes
//     the suffix only, and identical sequences align in O(n) with no table.
//     A common prefix cannot be trimmed the same way — the tie rule may put
//     a gap in front of it (a=[x y], b=[x x y]).
//   - Direction bytes. The DP keeps two rolling score rows and records, per
//     cell, the move the traceback takes out of it, in the same priority
//     order; the traceback reads those bytes instead of re-deriving moves
//     from a table of scores, which is 8× smaller.
package align

import (
	"context"
	"errors"
	"fmt"
)

// Gap is the symbol used for alignment gaps.
const Gap = -1

// ErrGapSymbol reports an input sequence that carries Gap as a symbol: the
// progressive alignment reads a Gap in its consensus as an inserted gap
// column, so such a symbol would be dropped.
var ErrGapSymbol = errors.New("align: input symbol is Gap")

// Scoring holds the alignment scores. Defaults follow the usual unit-cost
// global alignment.
type Scoring struct {
	Match    int
	Mismatch int
	GapOpen  int
}

// DefaultScoring returns match +2, mismatch -1, gap -2.
func DefaultScoring() Scoring { return Scoring{Match: 2, Mismatch: -1, GapOpen: -2} }

// trimsSuffix reports whether sc guarantees that matching symbols always
// align diagonally (see the package comment), so a common suffix can be
// aligned without the DP.
func (sc Scoring) trimsSuffix() bool {
	return sc.Match >= sc.Mismatch && sc.Match >= 2*sc.GapOpen
}

// pollRows is how many DP rows run between context polls.
const pollRows = 1024

// Traceback moves, in the order the traceback prefers them on ties.
const (
	moveDiag byte = iota // align a[i-1] with b[j-1]
	moveUp               // a[i-1] against a gap
	moveLeft             // b[j-1] against a gap
)

// Pairwise computes the Needleman-Wunsch global alignment of a and b,
// returning the two gapped sequences (equal length, Gap where a gap was
// inserted) and the alignment score.
func Pairwise(a, b []int, sc Scoring) (ga, gb []int, score int) {
	ga, gb, score, _ = pairwise(context.Background(), a, b, sc)
	return ga, gb, score
}

// pairwise is Pairwise polling ctx every pollRows DP rows.
func pairwise(ctx context.Context, a, b []int, sc Scoring) (ga, gb []int, score int, err error) {
	n, m := len(a), len(b)
	k := 0 // common suffix length, aligned diagonally without the DP
	if sc.trimsSuffix() {
		for k < n && k < m && a[n-1-k] == b[m-1-k] {
			k++
		}
	}
	n, m = n-k, m-k
	ga = make([]int, n+m+k)
	gb = make([]int, n+m+k)
	p := n + m
	copy(ga[p:], a[n:])
	copy(gb[p:], b[m:])

	// moves[(i-1)*m+j-1] is the traceback move out of cell (i, j).
	moves := make([]byte, n*m)
	prev := make([]int, m+1)
	cur := make([]int, m+1)
	for j := range prev {
		prev[j] = j * sc.GapOpen
	}
	for i := 1; i <= n; i++ {
		if i%pollRows == 0 {
			if err := ctx.Err(); err != nil {
				return nil, nil, 0, err
			}
		}
		cur[0] = i * sc.GapOpen
		fillRow(a[i-1], b[:m], prev, cur, moves[(i-1)*m:i*m], sc)
		prev, cur = cur, prev
	}
	score = prev[m] + k*sc.Match

	for i, j := n, m; i > 0 || j > 0; {
		p--
		mv := moveLeft
		switch {
		case j == 0:
			mv = moveUp
		case i > 0:
			mv = moves[(i-1)*m+j-1]
		}
		switch mv {
		case moveDiag:
			i--
			j--
			ga[p], gb[p] = a[i], b[j]
		case moveUp:
			i--
			ga[p], gb[p] = a[i], Gap
		default:
			j--
			ga[p], gb[p] = Gap, b[j]
		}
	}
	return ga[p:], gb[p:], score, nil
}

// fillRow computes one DP row: cur[j+1] from its diagonal prev[j], up
// prev[j+1] and left cur[j] neighbours, with cur[0] already set. moves[j]
// records the move the traceback takes out of the cell: diagonal unless
// another move scores strictly more, then up unless left scores strictly
// more. The reslicing lets the compiler drop the bounds checks.
func fillRow(x int, b, prev, cur []int, moves []byte, sc Scoring) {
	up := prev[1 : len(b)+1]
	out := cur[1 : len(b)+1]
	moves = moves[:len(b)]
	diag, left := prev[0], cur[0]
	for j, y := range b {
		best := diag + sc.Mismatch
		if x == y {
			best = diag + sc.Match
		}
		mv := moveDiag
		if u := up[j] + sc.GapOpen; u > best {
			best, mv = u, moveUp
		}
		if l := left + sc.GapOpen; l > best {
			best, mv = l, moveLeft
		}
		diag = up[j]
		out[j] = best
		moves[j] = mv
		left = best
	}
}

// MSA is a multiple sequence alignment: rows of equal length over symbols
// and Gap.
type MSA struct {
	Rows [][]int
}

// Width returns the alignment length (0 for an empty MSA).
func (m *MSA) Width() int {
	if len(m.Rows) == 0 {
		return 0
	}
	return len(m.Rows[0])
}

// Progressive builds a star-shaped multiple alignment: the longest sequence
// is the initial center; every other sequence is aligned against the current
// consensus, with "once a gap, always a gap" column insertion.
func Progressive(seqs [][]int, sc Scoring) (*MSA, error) {
	return ProgressiveContext(context.Background(), seqs, sc)
}

// ProgressiveContext is Progressive under a cancellable context: it checks
// ctx before every pairwise alignment, and each alignment polls it every
// pollRows DP rows. A sequence that carries the Gap symbol is rejected with
// ErrGapSymbol.
func ProgressiveContext(ctx context.Context, seqs [][]int, sc Scoring) (*MSA, error) {
	if len(seqs) == 0 {
		return nil, fmt.Errorf("align: no sequences")
	}
	for i, s := range seqs {
		for j, v := range s {
			if v == Gap {
				return nil, fmt.Errorf("%w: sequence %d, position %d", ErrGapSymbol, i, j)
			}
		}
	}
	// Pick the longest sequence as the center (stable on ties).
	center := 0
	for i, s := range seqs {
		if len(s) > len(seqs[center]) {
			center = i
		}
	}
	msa := &MSA{Rows: [][]int{append([]int(nil), seqs[center]...)}}
	order := make([]int, 0, len(seqs))
	order = append(order, center)
	// An empty sequence aligned against the consensus adds no gap column,
	// and the consensus ignores its all-gap row, so it skips the loop and
	// gets an all-gap row of the final width at the end. An empty center
	// means every sequence is empty; the loop keeps those (spmdScore in
	// internal/core does not align them at all).
	skipEmpty := len(seqs[center]) > 0
	var empty []int
	for i := range seqs {
		if i == center {
			continue
		}
		if skipEmpty && len(seqs[i]) == 0 {
			empty = append(empty, i)
			continue
		}
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		gc, gs, _, err := pairwise(ctx, msa.consensus(), seqs[i], sc)
		if err != nil {
			return nil, err
		}
		// gc tells where the existing alignment needs new gap columns.
		msa.insertAligned(gc, gs)
		order = append(order, i)
	}
	// Restore original sequence order in the rows: row r holds seqs[order[r]].
	ordered := make([][]int, len(seqs))
	for r, si := range order {
		ordered[si] = msa.Rows[r]
	}
	w := msa.Width()
	gaps := make([]int, len(empty)*w)
	for k := range gaps {
		gaps[k] = Gap
	}
	for k, si := range empty {
		ordered[si] = gaps[k*w : (k+1)*w : (k+1)*w]
	}
	return &MSA{Rows: ordered}, nil
}

// consensus returns, per column, the most frequent non-gap symbol (ties
// break toward the smaller symbol), or Gap for all-gap columns. Columns hold
// one symbol per row, so a linear tally over the distinct symbols seen
// replaces a per-column map.
func (m *MSA) consensus() []int {
	out := make([]int, m.Width())
	syms := make([]int, 0, len(m.Rows))
	counts := make([]int, 0, len(m.Rows))
	for c := range out {
		syms, counts = syms[:0], counts[:0]
		for _, row := range m.Rows {
			v := row[c]
			if v == Gap {
				continue
			}
			k := 0
			for k < len(syms) && syms[k] != v {
				k++
			}
			if k == len(syms) {
				syms = append(syms, v)
				counts = append(counts, 0)
			}
			counts[k]++
		}
		best, bestN := Gap, 0
		for k, v := range syms {
			if n := counts[k]; n > bestN || (n == bestN && v < best) {
				best, bestN = v, n
			}
		}
		out[c] = best
	}
	return out
}

// insertAligned extends the MSA with the new gapped sequence gs, where gc is
// the gapped form of the previous consensus: a Gap in gc at column k means
// every existing row needs a gap column inserted at k.
func (m *MSA) insertAligned(gc, gs []int) {
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

// SPMDScore measures how SPMD-consistent the alignment is: the fraction of
// (row, column) cells that carry the column's consensus symbol, over all
// non-empty columns. A perfect structure detection on a true SPMD code
// scores 1.
func (m *MSA) SPMDScore() float64 {
	w := m.Width()
	if w == 0 || len(m.Rows) == 0 {
		return 0
	}
	cons := m.consensus()
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
