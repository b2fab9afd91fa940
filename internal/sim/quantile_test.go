package sim

import (
	"encoding/binary"
	"math"
	"math/bits"
	"math/rand"
	"sort"
	"strconv"
	"testing"
	"time"
)

// oracleQuantile is the sort-based Quantile the selection replaced: copy,
// sort.Float64s, interpolate between the two order statistics.
func oracleQuantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := make([]float64, len(xs))
	copy(s, xs)
	sort.Float64s(s)
	if q <= 0 {
		return s[0]
	}
	if q >= 1 {
		return s[len(s)-1]
	}
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return s[lo]
	}
	frac := pos - float64(lo)
	return s[lo]*(1-frac) + s[hi]*frac
}

func sameValue(a, b float64) bool { return a == b || (a != a && b != b) }

func checkQuantile(t *testing.T, xs []float64, q float64) {
	t.Helper()
	want := oracleQuantile(xs, q)
	in := append([]float64(nil), xs...)
	if got := Quantile(xs, q); !sameValue(got, want) {
		t.Fatalf("Quantile(%v, %v) = %v, oracle %v", xs, q, got, want)
	}
	for i := range xs {
		if !sameValue(xs[i], in[i]) {
			t.Fatalf("Quantile reordered its input: %v, was %v", xs, in)
		}
	}
	if got := QuantileInPlace(in, q); !sameValue(got, want) {
		t.Fatalf("QuantileInPlace(%v, %v) = %v, oracle %v", xs, q, got, want)
	}
}

// genQuantileInput draws one input shape: heavy duplicates, all equal,
// sorted, reversed, uniform, or values salted with ±Inf and NaN.
func genQuantileInput(r *rand.Rand, n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = r.NormFloat64() * 1e3
	}
	switch r.Intn(7) {
	case 0:
		for i := range xs {
			xs[i] = float64(r.Intn(4))
		}
	case 1:
		v := r.Float64()
		for i := range xs {
			xs[i] = v
		}
	case 2:
		sort.Float64s(xs)
	case 3:
		sort.Sort(sort.Reverse(sort.Float64Slice(xs)))
	case 4:
		specials := []float64{math.Inf(1), math.Inf(-1), math.NaN(), 0, math.Copysign(0, -1)}
		for i := range xs {
			if r.Intn(3) == 0 {
				xs[i] = specials[r.Intn(len(specials))]
			}
		}
	case 5:
		for i := range xs {
			xs[i] = float64(i % 7)
		}
	}
	return xs
}

func TestQuantileMatchesOracle(t *testing.T) {
	r := rand.New(rand.NewSource(2501))
	for trial := 0; trial < 3000; trial++ {
		n := r.Intn(4)
		if r.Intn(3) != 0 {
			n = r.Intn(400)
		}
		xs := genQuantileInput(r, n)
		for _, q := range []float64{0, 0.5, 1, r.Float64(), r.Float64()*1.4 - 0.2} {
			checkQuantile(t, xs, q)
		}
	}
}

// FuzzQuantile holds the selection to the sort on arbitrary inputs. Each
// byte is one value, with a few bytes standing for NaN, ±Inf and −0 and the
// rest drawn from a small range so ties are common; with raw set, every
// 8 bytes are one float64's bits instead.
func FuzzQuantile(f *testing.F) {
	f.Add([]byte{3, 1, 2}, false, 0.5)
	f.Add([]byte{9, 9, 9, 9, 255, 1, 254, 253, 252, 0}, false, 0.3)
	f.Add([]byte("the quick brown fox jumps over the lazy dog"), false, 0.75)
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0xf8, 0x7f, 0, 0, 0, 0, 0, 0, 0xf0, 0x3f}, true, 0.9)
	f.Fuzz(func(t *testing.T, data []byte, raw bool, q float64) {
		if q != q {
			q = 0.5
		}
		var xs []float64
		if raw {
			for ; len(data) >= 8; data = data[8:] {
				xs = append(xs, math.Float64frombits(binary.LittleEndian.Uint64(data)))
			}
		} else {
			for _, b := range data {
				switch b {
				case 255:
					xs = append(xs, math.NaN())
				case 254:
					xs = append(xs, math.Inf(1))
				case 253:
					xs = append(xs, math.Inf(-1))
				case 252:
					xs = append(xs, math.Copysign(0, -1))
				default:
					xs = append(xs, float64(b%16)-4)
				}
			}
		}
		checkQuantile(t, xs, q)
	})
}

// medianOf3Killer returns n values (n a multiple of 4) on which a
// median-of-3 Hoare quickselect for the median drops two values per
// partition: the range's first and middle positions hold its two smallest
// values and its last position the largest, so the pivot is the second
// smallest, and each partition only moves the middle value down to the
// front, leaving the same layout one position on for the next.
func medianOf3Killer(n int) []float64 {
	s := make([]float64, n)
	for i := range s {
		s[i] = float64(n + i)
	}
	for k := 0; k < n/4; k++ {
		s[2*k] = float64(2 * k)
		s[n/2+k] = float64(2*k + 1)
	}
	s[n-1] = float64(3 * n)
	return s
}

// TestQuantileAdversarialInput runs the selection on a median-of-3 killer.
// Without its partition budget the selection partitions the input about
// n/4 times, each pass over most of it (shown at 2^12 values), so 2^20
// values would take about 10^11 comparisons. With the budget the killer
// exhausts its 2·log₂n partitions and the sort takes over, which bounds the
// comparisons to O(n log n): a Median of 2^20 values well within the time
// bound.
func TestQuantileAdversarialInput(t *testing.T) {
	small := medianOf3Killer(1 << 12)
	if passes := introselect(small, len(small)/2, len(small)); passes < len(small)/4 {
		t.Fatalf("unbudgeted selection ran %d partitions on the killer, want at least %d: the input no longer defeats the pivot rule", passes, len(small)/4)
	}
	xs := medianOf3Killer(1 << 20)
	want := oracleQuantile(xs, 0.5)
	budget := 2 * bits.Len(uint(len(xs)))
	if passes := introselect(append([]float64(nil), xs...), len(xs)/2, budget); passes != budget {
		t.Fatalf("%d partitions on the killer, want the whole budget of %d", passes, budget)
	}
	start := time.Now()
	got := Median(xs)
	if d := time.Since(start); d > 10*time.Second {
		t.Fatalf("Median of 2^20 adversarial values took %v", d)
	}
	if got != want {
		t.Fatalf("Median of the killer = %v, want %v", got, want)
	}
}

var quantileSink float64

func BenchmarkQuantile(b *testing.B) {
	for _, n := range []int{100, 1000, 10000} {
		r := rand.New(rand.NewSource(int64(n)))
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(r.Intn(1_000_000))
		}
		b.Run("median/n="+strconv.Itoa(n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				quantileSink = Median(xs)
			}
		})
	}
}
