package ml

import "fmt"

// Classifier is a binary classifier over dense feature rows.
type Classifier interface {
	// Fit trains on X (rows of equal width) with labels y in {0, 1}.
	Fit(x [][]float64, y []int) error
	// Predict labels each row 0 or 1.
	Predict(x [][]float64) []int
}

// Scorer is implemented by classifiers that expose a continuous decision
// score (higher = more likely positive); used for explainability and
// threshold tuning.
type Scorer interface {
	Score(row []float64) float64
}

// Transformer is a fitted feature-space transformation.
type Transformer interface {
	// Fit learns transformation parameters from training data.
	Fit(x [][]float64, y []int)
	// Transform maps rows into the output space. It must not mutate x.
	Transform(x [][]float64) [][]float64
}

// IntoTransformer is the allocation-free variant of Transformer: stages
// that know their output width up front and can write into caller-owned
// rows. Pipeline.PredictInto uses it to keep the serving path off the
// garbage collector.
type IntoTransformer interface {
	Transformer
	// OutCols reports the output row width for input rows of width cols.
	OutCols(cols int) int
	// TransformInto writes Transform(x) into out, whose rows have width
	// OutCols(len(x[i])). It must not mutate x and must produce exactly
	// the bits Transform produces.
	TransformInto(x, out [][]float64)
}

// IntoPredictor is the allocation-free variant of Classifier.
type IntoPredictor interface {
	Classifier
	// PredictInto labels each row into out (len(out) == len(x)).
	PredictInto(x [][]float64, out []int)
}

// matBuf is a reusable rows×cols matrix: one backing block, re-sliced
// per call, growing monotonically so steady-state reshapes allocate
// nothing.
type matBuf struct {
	rows [][]float64
	back []float64
}

// shape returns a r×c matrix over the buffer's storage.
func (b *matBuf) shape(r, c int) [][]float64 {
	if cap(b.back) < r*c {
		b.back = make([]float64, r*c)
	}
	back := b.back[:cap(b.back)]
	if cap(b.rows) < r {
		b.rows = make([][]float64, r)
	}
	rows := b.rows[:r]
	for i := range rows {
		rows[i] = back[i*c : (i+1)*c : (i+1)*c]
	}
	b.rows, b.back = rows, back
	return rows
}

// Pipeline chains transformers and a final classifier, mirroring the
// per-model preprocessing pipelines of Figure 8. Fitting fits each stage on
// the transformed output of the previous ones — on training data only, so
// no statistics leak from the test set.
type Pipeline struct {
	Name   string
	Stages []Transformer
	Model  Classifier

	// scratch ping-pongs intermediate matrices between Into-capable
	// stages during PredictInto; two buffers suffice because a stage
	// only ever reads its predecessor's output.
	scratch [2]matBuf
}

// Fit fits all stages and the model.
func (p *Pipeline) Fit(x [][]float64, y []int) error {
	if p.Model == nil {
		return fmt.Errorf("ml: pipeline %q has no model", p.Name)
	}
	cur := x
	for _, s := range p.Stages {
		s.Fit(cur, y)
		cur = s.Transform(cur)
	}
	if err := p.Model.Fit(cur, y); err != nil {
		return fmt.Errorf("ml: pipeline %q: %w", p.Name, err)
	}
	return nil
}

// Transform applies the fitted stages only.
func (p *Pipeline) Transform(x [][]float64) [][]float64 {
	cur := x
	for _, s := range p.Stages {
		cur = s.Transform(cur)
	}
	return cur
}

// Predict classifies rows through the full pipeline.
func (p *Pipeline) Predict(x [][]float64) []int {
	return p.Model.Predict(p.Transform(x))
}

// PredictInto classifies rows into out (len(out) == len(x)) producing
// exactly Predict's labels. Stages implementing IntoTransformer write
// into the pipeline's reusable scratch matrices and a Model implementing
// IntoPredictor labels without allocating, so a fully Into-capable
// pipeline allocates nothing once the scratch has grown to the batch
// size; other stages fall back to their allocating forms. Not safe for
// concurrent use with itself (the scratch is shared); concurrent callers
// should use Predict.
func (p *Pipeline) PredictInto(x [][]float64, out []int) {
	cur := x
	flip := 0
	for _, s := range p.Stages {
		it, ok := s.(IntoTransformer)
		if !ok {
			cur = s.Transform(cur)
			continue
		}
		cols := 0
		if len(cur) > 0 {
			cols = len(cur[0])
		}
		dst := p.scratch[flip&1].shape(len(cur), it.OutCols(cols))
		flip++
		it.TransformInto(cur, dst)
		cur = dst
	}
	if ip, ok := p.Model.(IntoPredictor); ok {
		ip.PredictInto(cur, out)
		return
	}
	copy(out, p.Model.Predict(cur))
}

// CrossValidate runs k-fold cross validation and returns the mean Fβ=0.5
// across folds (the Appendix C model selection criterion).
func CrossValidate(build func() *Pipeline, d *Dataset, seed uint64, k int) (float64, error) {
	folds := d.Folds(seed, k)
	var sum float64
	for i := range folds {
		p := build()
		train := d.Subset(TrainFold(folds, i))
		test := d.Subset(folds[i])
		if err := p.Fit(train.X, train.Y); err != nil {
			return 0, fmt.Errorf("ml: fold %d: %w", i, err)
		}
		c := Confuse(test.Y, p.Predict(test.X))
		sum += c.FBeta(0.5)
	}
	return sum / float64(len(folds)), nil
}
