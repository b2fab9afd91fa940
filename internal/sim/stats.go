package sim

import (
	"math"
	"math/bits"
	"slices"
)

// Mean returns the arithmetic mean of xs, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Variance returns the population variance of xs, or 0 when len(xs) < 2.
func Variance(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := Mean(xs)
	s := 0.0
	for _, x := range xs {
		d := x - m
		s += d * d
	}
	return s / float64(len(xs))
}

// Stddev returns the population standard deviation of xs.
func Stddev(xs []float64) float64 { return math.Sqrt(Variance(xs)) }

// Median returns the median of xs, or 0 for an empty slice. xs is not
// modified.
func Median(xs []float64) float64 {
	return Quantile(xs, 0.5)
}

// Quantile returns the q-quantile (0 <= q <= 1) of xs using linear
// interpolation between order statistics. xs is not modified.
func Quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return QuantileInPlace(slices.Clone(xs), q)
}

// QuantileInPlace is Quantile on a slice it may reorder. It selects the one
// or two order statistics the interpolation reads instead of sorting (linear
// expected time, O(n log n) at worst) and returns the value a sort of xs
// would give: order statistics follow sort.Float64s (NaN before every
// number), so a selected value is == to the sorted one, or both are NaN.
func QuantileInPlace(xs []float64, q float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	lo, hi, frac := n-1, n-1, 0.0
	if q <= 0 {
		lo, hi = 0, 0
	} else if q < 1 {
		pos := q * float64(n-1)
		lo, hi = int(math.Floor(pos)), int(math.Ceil(pos))
		frac = pos - float64(lo)
	}
	// NaNs sort first: move them to the front, so the selection compares
	// numbers with < alone. A NaN statistic makes the result NaN.
	nan := 0
	for i, x := range xs {
		if x != x {
			xs[i], xs[nan] = xs[nan], x
			nan++
		}
	}
	if lo < nan {
		return xs[lo]
	}
	s, k := xs[nan:], lo-nan
	introselect(s, k, 2*bits.Len(uint(len(s))))
	if lo == hi {
		return s[k]
	}
	// Everything after s[k] is >= s[k]; the next order statistic is their
	// minimum.
	next := s[k+1]
	for _, x := range s[k+2:] {
		if x < next {
			next = x
		}
	}
	return s[k]*(1-frac) + next*frac
}

// introselect reorders s, which holds no NaN, so that s[k] holds the value a
// sort would put there, with no larger value before it and no smaller one
// after it. It is a median-of-3 quickselect (Hoare partition) that sorts the
// range still open once budget partitions have not closed it, which bounds
// its comparisons by O(n·budget + n log n) on any input, adversarial ones
// included. It returns the number of partitions run.
func introselect(s []float64, k, budget int) int {
	first, last, passes := 0, len(s), 0
	for last-first > 12 && passes < budget {
		passes++
		pivot := median3(s[first], s[first+(last-first)/2], s[last-1])
		cut := first + partition(s[first:last], pivot)
		if cut <= k {
			first = cut
		} else {
			last = cut
		}
	}
	slices.Sort(s[first:last])
	return passes
}

// median3 returns the median of a, b and c.
func median3(a, b, c float64) float64 {
	if b < a {
		a, b = b, a
	}
	if c < b {
		b = max(a, c)
	}
	return b
}

// partition splits s around pivot, the median of three values s holds at
// distinct positions, and returns the cut: every value before it is <=
// pivot, every value from it on is >= pivot, and 0 < cut < len(s). The scans
// need no bounds checks of their own: two of the sampled values lie on each
// side of the pivot (itself included), and after each swap the swapped pair
// stops the next scans.
func partition(s []float64, pivot float64) int {
	i, j := 0, len(s)
	for {
		for s[i] < pivot {
			i++
		}
		j--
		for pivot < s[j] {
			j--
		}
		if i >= j {
			return i
		}
		s[i], s[j] = s[j], s[i]
		i++
	}
}

// MeanAbsError returns the mean absolute difference between a and b, which
// must have equal length.
func MeanAbsError(a, b []float64) float64 {
	if len(a) != len(b) {
		panic("sim: MeanAbsError length mismatch")
	}
	if len(a) == 0 {
		return 0
	}
	s := 0.0
	for i := range a {
		s += math.Abs(a[i] - b[i])
	}
	return s / float64(len(a))
}

// RMSE returns the root-mean-square error between a and b, which must have
// equal length.
func RMSE(a, b []float64) float64 {
	if len(a) != len(b) {
		panic("sim: RMSE length mismatch")
	}
	if len(a) == 0 {
		return 0
	}
	s := 0.0
	for i := range a {
		d := a[i] - b[i]
		s += d * d
	}
	return math.Sqrt(s / float64(len(a)))
}

// Linspace returns n evenly spaced values from lo to hi inclusive. n must be
// at least 2.
func Linspace(lo, hi float64, n int) []float64 {
	if n < 2 {
		panic("sim: Linspace needs n >= 2")
	}
	out := make([]float64, n)
	step := (hi - lo) / float64(n-1)
	for i := range out {
		out[i] = lo + float64(i)*step
	}
	out[n-1] = hi
	return out
}

// Clamp limits v to the interval [lo, hi].
func Clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
