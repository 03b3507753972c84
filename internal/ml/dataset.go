// Package ml provides the supervised learning substrate of Step 2: dataset
// handling, train/test splitting and k-fold cross validation, classification
// metrics (F1, Fβ, rate table), the preprocessing stages of Figure 8
// (feature reduction, imputing, standardization, PCA, normalization), the
// Pipeline composition used by every classifier, and grid search.
//
// All models implement the Classifier interface over dense float64 feature
// matrices; categorical inputs are expected to be WoE-encoded upstream.
package ml

import (
	"fmt"
	"math/rand/v2"
)

// Dataset is a dense feature matrix with binary labels (1 = DDoS/blackhole).
type Dataset struct {
	X     [][]float64
	Y     []int
	Names []string // column names, len == len(X[i])
}

// NewDataset validates shapes and wraps the data.
func NewDataset(x [][]float64, y []int, names []string) (*Dataset, error) {
	if len(x) != len(y) {
		return nil, fmt.Errorf("ml: %d rows but %d labels", len(x), len(y))
	}
	if len(x) > 0 && names != nil && len(names) != len(x[0]) {
		return nil, fmt.Errorf("ml: %d columns but %d names", len(x[0]), len(names))
	}
	for i := range x {
		if len(x[i]) != len(x[0]) {
			return nil, fmt.Errorf("ml: ragged row %d: %d cols, want %d", i, len(x[i]), len(x[0]))
		}
	}
	return &Dataset{X: x, Y: y, Names: names}, nil
}

// Len returns the number of rows.
func (d *Dataset) Len() int { return len(d.X) }

// Subset returns the dataset restricted to the given row indices; the rows
// alias the parent.
func (d *Dataset) Subset(idx []int) *Dataset {
	x := make([][]float64, len(idx))
	y := make([]int, len(idx))
	for i, j := range idx {
		x[i] = d.X[j]
		y[i] = d.Y[j]
	}
	return &Dataset{X: x, Y: y, Names: d.Names}
}

// Folds partitions row indices into k shuffled folds for cross-validation;
// fold i is the validation set of round i.
func (d *Dataset) Folds(seed uint64, k int) [][]int {
	if k < 2 {
		k = 2
	}
	idx := rand.New(rand.NewPCG(seed, seed*2654435761+1)).Perm(d.Len())
	folds := make([][]int, k)
	for i, j := range idx {
		folds[i%k] = append(folds[i%k], j)
	}
	return folds
}

// TrainFold returns all indices not in folds[i].
func TrainFold(folds [][]int, i int) []int {
	var out []int
	for j, f := range folds {
		if j != i {
			out = append(out, f...)
		}
	}
	return out
}

// Sample returns a random subset of at most n rows (the Appendix C grid
// search samples 250k records).
func (d *Dataset) Sample(seed uint64, n int) *Dataset {
	if n >= d.Len() {
		return d
	}
	idx := rand.New(rand.NewPCG(seed, seed+7)).Perm(d.Len())[:n]
	return d.Subset(idx)
}
