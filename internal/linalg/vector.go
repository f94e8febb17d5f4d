package linalg

import (
	"fmt"
	"math"
)

// Dot returns the inner product of two equal-length dense vectors,
// dispatched through the kernel backend registry.
func Dot(a, b []float64) float64 {
	if len(a) != len(b) {
		panic(fmt.Sprintf("linalg: Dot length mismatch %d vs %d", len(a), len(b)))
	}
	return Choose(OpDot, len(a), 1, 1).Dot(a, b)
}

// Norm2 returns the Euclidean norm of v.
func Norm2(v []float64) float64 {
	var s float64
	for _, x := range v {
		s += x * x
	}
	return math.Sqrt(s)
}

// AxpyInPlace computes y += alpha*x in place, dispatched through the
// kernel backend registry.
func AxpyInPlace(alpha float64, x, y []float64) {
	if len(x) != len(y) {
		panic(fmt.Sprintf("linalg: Axpy length mismatch %d vs %d", len(x), len(y)))
	}
	Choose(OpAxpy, len(x), 1, 1).Axpy(alpha, x, y)
}

// ScaleInPlace multiplies v by alpha in place.
func ScaleInPlace(alpha float64, v []float64) {
	for i := range v {
		v[i] *= alpha
	}
}

// Normalize scales v to unit L2 norm in place; zero vectors are left alone.
// It returns the original norm.
func Normalize(v []float64) float64 {
	n := Norm2(v)
	if n > 0 {
		ScaleInPlace(1/n, v)
	}
	return n
}

// ArgMax returns the index of the largest value in v, or -1 for empty input.
func ArgMax(v []float64) int {
	if len(v) == 0 {
		return -1
	}
	best, bestV := 0, v[0]
	for i, x := range v[1:] {
		if x > bestV {
			best, bestV = i+1, x
		}
	}
	return best
}

// TopK returns the indices of the k largest values of v in descending
// order. k is clamped to len(v). The selection is O(n*k) which is fine for
// the small k (top-5 classification) used by the pipelines.
func TopK(v []float64, k int) []int {
	if k > len(v) {
		k = len(v)
	}
	idx := make([]int, 0, k)
	used := make([]bool, len(v))
	for n := 0; n < k; n++ {
		best := -1
		bestV := math.Inf(-1)
		for i, x := range v {
			if !used[i] && x > bestV {
				best, bestV = i, x
			}
		}
		if best < 0 {
			break
		}
		used[best] = true
		idx = append(idx, best)
	}
	return idx
}

// Clone returns a copy of v.
func CloneVec(v []float64) []float64 {
	out := make([]float64, len(v))
	copy(out, v)
	return out
}

// Sum returns the sum of the elements of v.
func Sum(v []float64) float64 {
	var s float64
	for _, x := range v {
		s += x
	}
	return s
}

// Mean returns the arithmetic mean of v, or 0 for empty input.
func Mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	return Sum(v) / float64(len(v))
}

// Variance returns the population variance of v, or 0 for empty input.
func Variance(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	m := Mean(v)
	var s float64
	for _, x := range v {
		d := x - m
		s += d * d
	}
	return s / float64(len(v))
}
