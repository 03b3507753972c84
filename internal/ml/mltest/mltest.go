// Package mltest provides shared synthetic datasets for testing the ML
// substrate: Gaussian blobs, XOR (non-linear), a ring problem and a
// hypersphere problem, all deterministic by seed. The package is test support: no
// production package imports it, so the reachability gate (reach_test.go)
// roots all of its declarations.
package mltest

import (
	"math"
	"math/rand/v2"
)

// Blobs returns n points per class from two Gaussian blobs separated by
// dist standard deviations in `dims` dimensions.
func Blobs(seed uint64, n, dims int, dist float64) ([][]float64, []int) {
	rng := rand.New(rand.NewPCG(seed, seed^0xFF51AFD7ED558CCD))
	x := make([][]float64, 0, 2*n)
	y := make([]int, 0, 2*n)
	for c := 0; c < 2; c++ {
		center := dist * float64(c)
		for i := 0; i < n; i++ {
			row := make([]float64, dims)
			for j := range row {
				row[j] = center + rng.NormFloat64()
			}
			x = append(x, row)
			y = append(y, c)
		}
	}
	// Shuffle jointly.
	rng.Shuffle(len(x), func(i, j int) {
		x[i], x[j] = x[j], x[i]
		y[i], y[j] = y[j], y[i]
	})
	return x, y
}

// XOR returns the classic non-linearly-separable XOR problem with noise.
func XOR(seed uint64, n int) ([][]float64, []int) {
	rng := rand.New(rand.NewPCG(seed, seed+3))
	x := make([][]float64, 0, n)
	y := make([]int, 0, n)
	for i := 0; i < n; i++ {
		a, b := rng.Float64()*2-1, rng.Float64()*2-1
		label := 0
		if (a > 0) != (b > 0) {
			label = 1
		}
		x = append(x, []float64{a + 0.05*rng.NormFloat64(), b + 0.05*rng.NormFloat64()})
		y = append(y, label)
	}
	return x, y
}

// Ring returns points labeled by whether they fall inside a radius.
func Ring(seed uint64, n int) ([][]float64, []int) {
	rng := rand.New(rand.NewPCG(seed, seed+9))
	x := make([][]float64, 0, n)
	y := make([]int, 0, n)
	for i := 0; i < n; i++ {
		a, b := rng.NormFloat64(), rng.NormFloat64()
		label := 0
		if math.Hypot(a, b) < 1.17 { // ~50/50 split for 2D standard normal
			label = 1
		}
		x = append(x, []float64{a, b})
		y = append(y, label)
	}
	return x, y
}

// Hypersphere returns n standard-normal points in `dims` dimensions
// labeled by whether they fall inside the median radius (~50/50 split).
// The spherical boundary is nonlinear in every dimension, so axis-
// aligned trees need many deep splits spread across all features to
// approximate it — boosting keeps growing full-depth trees for hundreds
// of rounds instead of converging to stumps, which makes this the
// representative workload for inference benchmarks (production-shaped
// ensembles, data-dependent branch outcomes).
func Hypersphere(seed uint64, n, dims int) ([][]float64, []int) {
	rng := rand.New(rand.NewPCG(seed, seed^0xC2B2AE3D27D4EB4F))
	// Median of the chi distribution with `dims` degrees of freedom.
	r := math.Sqrt(float64(dims) - 2.0/3.0)
	x := make([][]float64, 0, n)
	y := make([]int, 0, n)
	for i := 0; i < n; i++ {
		row := make([]float64, dims)
		s := 0.0
		for j := range row {
			row[j] = rng.NormFloat64()
			s += row[j] * row[j]
		}
		label := 0
		if s < r*r {
			label = 1
		}
		x = append(x, row)
		y = append(y, label)
	}
	return x, y
}

// Accuracy scores predictions.
func Accuracy(yTrue, yPred []int) float64 {
	if len(yTrue) == 0 {
		return 0
	}
	ok := 0
	for i := range yTrue {
		if yTrue[i] == yPred[i] {
			ok++
		}
	}
	return float64(ok) / float64(len(yTrue))
}
