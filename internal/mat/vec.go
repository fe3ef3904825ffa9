package mat

import "fmt"

// Vector helpers operate on plain []float64 so callers do not need to wrap
// sensor streams in Matrix values.

// SubVec returns u - v element-wise as a new slice.
func SubVec(u, v []float64) []float64 {
	if len(u) != len(v) {
		panic(fmt.Sprintf("mat: SubVec length mismatch %d vs %d", len(u), len(v)))
	}
	out := make([]float64, len(u))
	for i := range u {
		out[i] = u[i] - v[i]
	}
	return out
}

// CloneVec returns a copy of v.
func CloneVec(v []float64) []float64 {
	out := make([]float64, len(v))
	copy(out, v)
	return out
}
