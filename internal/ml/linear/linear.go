// Package linear implements a linear support vector machine trained on the
// squared hinge loss (the sklearn LinearSVC configuration the paper
// selects: squared hinge, L2 regularization, optional class weighting),
// optimized with mini-batch SGD and momentum.
package linear

import (
	"fmt"
	"math"
	"math/rand/v2"
)

// Options are the LSVM hyperparameters (Appendix C grid).
type Options struct {
	// C is the inverse regularization strength (paper selects 1e-5).
	C float64
	// Balanced reweights classes inversely to their frequency.
	Balanced bool
	// Epochs and BatchSize control the SGD schedule.
	Epochs    int
	BatchSize int
	// LearningRate is the initial step size (decays 1/sqrt(t)).
	LearningRate float64
	// Seed fixes shuffling.
	Seed uint64
}

// DefaultOptions mirrors the paper's selected operating point.
func DefaultOptions() Options {
	return Options{
		C:            1e-5,
		Balanced:     false,
		Epochs:       30,
		BatchSize:    256,
		LearningRate: 0.05,
		Seed:         1,
	}
}

// Model is a fitted linear SVM.
type Model struct {
	opts Options
	w    []float64
	b    float64
}

// New returns an unfitted model.
func New(opts Options) *Model {
	if opts.Epochs <= 0 {
		opts.Epochs = 30
	}
	if opts.BatchSize <= 0 {
		opts.BatchSize = 256
	}
	if opts.LearningRate <= 0 {
		opts.LearningRate = 0.05
	}
	if opts.C <= 0 {
		opts.C = 1.0
	}
	return &Model{opts: opts}
}

// Fit minimizes ||w||²/2 + C·Σ max(0, 1 - y·f(x))² by mini-batch SGD with
// momentum. Labels are mapped to y ∈ {-1, +1}.
func (m *Model) Fit(x [][]float64, y []int) error {
	if len(x) == 0 {
		return fmt.Errorf("linear: empty training set")
	}
	rows, cols := len(x), len(x[0])
	m.w = make([]float64, cols)
	m.b = 0

	// Class weights.
	pos := 0
	for _, v := range y {
		pos += v
	}
	wPos, wNeg := 1.0, 1.0
	if m.opts.Balanced && pos > 0 && pos < rows {
		wPos = float64(rows) / (2 * float64(pos))
		wNeg = float64(rows) / (2 * float64(rows-pos))
	}

	rng := rand.New(rand.NewPCG(m.opts.Seed, m.opts.Seed^0xE7037ED1A0B428DB))
	idx := make([]int, rows)
	for i := range idx {
		idx[i] = i
	}
	vel := make([]float64, cols)
	var velB float64
	const momentum = 0.9
	// Effective per-sample loss scale: C multiplies the hinge term; the
	// regularizer gradient is w / rows per sample batch.
	step := 0
	for e := 0; e < m.opts.Epochs; e++ {
		rng.Shuffle(rows, func(i, j int) { idx[i], idx[j] = idx[j], idx[i] })
		for start := 0; start < rows; start += m.opts.BatchSize {
			end := start + m.opts.BatchSize
			if end > rows {
				end = rows
			}
			batch := idx[start:end]
			step++
			lr := m.opts.LearningRate / math.Sqrt(float64(step))

			gw := make([]float64, cols)
			var gb float64
			for _, r := range batch {
				yy := -1.0
				cw := wNeg
				if y[r] == 1 {
					yy = 1
					cw = wPos
				}
				f := m.b
				row := x[r]
				for j, v := range row {
					f += m.w[j] * v
				}
				marginDef := 1 - yy*f
				if marginDef <= 0 {
					continue
				}
				// d/dw C·(1-y f)² = -2C(1-yf)·y·x
				g := -2 * m.opts.C * cw * marginDef * yy
				for j, v := range row {
					gw[j] += g * v
				}
				gb += g
			}
			scale := 1 / float64(len(batch))
			for j := 0; j < cols; j++ {
				grad := gw[j]*scale + m.w[j]/float64(rows)
				vel[j] = momentum*vel[j] - lr*grad
				m.w[j] += vel[j]
			}
			velB = momentum*velB - lr*gb*scale
			m.b += velB
		}
	}
	return nil
}

// Score returns the signed decision value.
func (m *Model) Score(row []float64) float64 {
	f := m.b
	for j, v := range row {
		if j < len(m.w) {
			f += m.w[j] * v
		}
	}
	return f
}

// Predict labels rows by the sign of the decision value.
func (m *Model) Predict(x [][]float64) []int {
	out := make([]int, len(x))
	for i, row := range x {
		if m.Score(row) >= 0 {
			out[i] = 1
		}
	}
	return out
}
