// Package core assembles the two-step IXP Scrubber model (§5): Step 1 mines
// and curates tagging rules over balanced flow records; Step 2 aggregates
// flows to per-target-IP profiles, encodes categoricals as Weight of
// Evidence and classifies targets with a supervised model. The package also
// implements the RBC and DUM baselines, local explainability, geographic
// model transfer (full vs classifier-only), and ACL generation.
package core

import (
	"fmt"
	"net/netip"
	"sort"
	"time"

	"github.com/ixp-scrubber/ixpscrubber/internal/acl"
	"github.com/ixp-scrubber/ixpscrubber/internal/features"
	"github.com/ixp-scrubber/ixpscrubber/internal/ml"
	"github.com/ixp-scrubber/ixpscrubber/internal/ml/bayes"
	"github.com/ixp-scrubber/ixpscrubber/internal/ml/dummy"
	"github.com/ixp-scrubber/ixpscrubber/internal/ml/linear"
	"github.com/ixp-scrubber/ixpscrubber/internal/ml/nn"
	"github.com/ixp-scrubber/ixpscrubber/internal/ml/tree"
	"github.com/ixp-scrubber/ixpscrubber/internal/ml/xgb"
	"github.com/ixp-scrubber/ixpscrubber/internal/netflow"
	"github.com/ixp-scrubber/ixpscrubber/internal/par"
	"github.com/ixp-scrubber/ixpscrubber/internal/tagging"
	"github.com/ixp-scrubber/ixpscrubber/internal/woe"
)

// ModelName identifies one of the evaluated classifiers.
type ModelName string

// The model zoo of Tables 3 and 5.
const (
	ModelXGB  ModelName = "XGB"
	ModelNN   ModelName = "NN"
	ModelLSVM ModelName = "LSVM"
	ModelNBG  ModelName = "NB-G"
	ModelDT   ModelName = "DT"
	ModelNBC  ModelName = "NB-C"
	ModelNBM  ModelName = "NB-M"
	ModelNBB  ModelName = "NB-B"
	ModelRBC  ModelName = "RBC" // rule tagging baseline
	ModelDUM  ModelName = "DUM" // random baseline
)

// AllModels lists the models in Table 5 order.
var AllModels = []ModelName{
	ModelXGB, ModelNN, ModelLSVM, ModelNBG, ModelDT,
	ModelNBC, ModelNBM, ModelNBB, ModelRBC, ModelDUM,
}

// Config parameterizes a Scrubber.
type Config struct {
	// Model selects the Step 2 classifier.
	Model ModelName
	// Seed drives every stochastic component.
	Seed uint64
	// Mine configures Step 1 rule mining.
	Mine tagging.MineOptions
	// AutoAccept curates mined rules with the scripted operator policy
	// (tagging.DefaultAcceptPolicy) instead of waiting for human review;
	// the prototype evaluation mode (§6 trains without intervention).
	AutoAccept bool
	// Policy overrides the auto-acceptance policy when AutoAccept is set.
	Policy *tagging.AcceptPolicy
	// XGB optionally overrides the XGBoost hyperparameters.
	XGB *xgb.Options
	// WoESmoothing overrides the WoE pseudocount (default 1, the paper's
	// add-one guard). Larger values stabilize small training corpora.
	WoESmoothing float64
	// WoEMinCount is the evidence floor: categorical values seen fewer
	// times than this encode as neutral, like unknowns. Defaults to 4 —
	// with the paper's data volumes every recurring value clears the floor,
	// so the default matters only for small corpora.
	WoEMinCount int
	// Workers bounds the worker pool used for rule mining, feature
	// encoding, and classifier training/scoring: 0 sizes from GOMAXPROCS,
	// 1 forces the serial path. Outputs are bit-for-bit identical at every
	// value (see internal/par).
	Workers int
	// Sketch enables the bounded-memory sketch aggregation path with the
	// given exactness budget; nil means exact aggregation. See
	// features.SketchConfig for the error-budget semantics.
	Sketch *features.SketchConfig
}

// DefaultConfig returns the recommended production configuration (XGB).
func DefaultConfig() Config {
	return Config{
		Model:       ModelXGB,
		Seed:        1,
		Mine:        tagging.DefaultMineOptions(),
		AutoAccept:  true,
		WoEMinCount: 4,
	}
}

// Scrubber is a two-step IXP Scrubber model instance.
type Scrubber struct {
	cfg      Config
	rules    *tagging.RuleSet
	tagger   *tagging.Tagger
	encoder  *woe.Encoder
	pipeline *ml.Pipeline
	fitted   bool
	metrics  *Metrics
	// needsEncoder marks a classifier-only import (Fig. 12): the trees are
	// fitted but no WoE encoder travelled with them, so Predict refuses to
	// run until WithEncoder binds a local snapshot.
	needsEncoder bool
}

// New creates a Scrubber with an empty rule set.
func New(cfg Config) *Scrubber {
	if cfg.Model == "" {
		cfg.Model = ModelXGB
	}
	return &Scrubber{
		cfg:     cfg,
		rules:   tagging.NewRuleSet(nil),
		tagger:  tagging.NewTagger(nil),
		encoder: woe.NewEncoder(),
	}
}

// Config returns the scrubber's configuration.
func (s *Scrubber) Config() Config { return s.cfg }

// Rules exposes the curated rule set.
func (s *Scrubber) Rules() *tagging.RuleSet { return s.rules }

// Encoder exposes the WoE encoder (the local knowledge of this vantage
// point).
func (s *Scrubber) Encoder() *woe.Encoder { return s.encoder }

// MineRules runs Step 1 on balanced flow records, merging fresh rules into
// the rule set. With AutoAccept, staged rules are accepted immediately.
func (s *Scrubber) MineRules(records []netflow.Record) (tagging.MiningReport, error) {
	start := time.Now()
	mine := s.cfg.Mine
	if mine.Workers == 0 {
		mine.Workers = s.cfg.Workers
	}
	rules, rep := tagging.Mine(records, mine)
	s.rules.Merge(rules)
	if s.cfg.AutoAccept {
		policy := tagging.DefaultAcceptPolicy()
		if s.cfg.Policy != nil {
			policy = *s.cfg.Policy
		}
		s.rules.Apply(policy)
	}
	s.tagger = tagging.NewTagger(s.rules.Accepted())
	s.metrics.observeMine(start, rep.RulesMinimized, len(s.rules.Accepted()))
	return rep, nil
}

// SetRules replaces the rule set (e.g. imported from the released JSON
// list) and rebuilds the tagger.
func (s *Scrubber) SetRules(set *tagging.RuleSet) {
	s.rules = set
	s.tagger = tagging.NewTagger(set.Accepted())
}

// Aggregate groups balanced flow records into per-<minute, target>
// aggregates annotated with the scrubber's accepted rules. vectors may be
// nil; when given it must align with records (ground truth for per-vector
// scoring). With cfg.Sketch set the bounded-memory sketch path is used; with
// more than one worker, each minute's records are ingested shard-parallel.
// Output is identical at every worker count.
func (s *Scrubber) Aggregate(records []netflow.Record, vectors []string) []*features.Aggregate {
	return features.AggregateRecords(records, vectors, features.Options{
		Tagger:  s.tagger,
		Sketch:  s.cfg.Sketch,
		Workers: s.cfg.Workers,
		Metrics: s.metrics.featureMetrics(),
	})
}

// buildPipeline constructs the Figure 8 preprocessing pipeline for the
// configured model.
func (s *Scrubber) buildPipeline() (*ml.Pipeline, error) {
	fr := &ml.VarianceThreshold{Min: 1e-12}
	im := &ml.Imputer{Value: -1}
	switch s.cfg.Model {
	case ModelXGB:
		opts := xgb.DefaultOptions()
		opts.MaxDepth = 8 // histogram trees saturate well before the paper's 24
		if s.cfg.XGB != nil {
			opts = *s.cfg.XGB
		}
		if opts.Workers == 0 {
			opts.Workers = s.cfg.Workers
		}
		return &ml.Pipeline{Name: string(s.cfg.Model),
			Stages: []ml.Transformer{fr, im},
			Model:  xgb.New(opts)}, nil
	case ModelDT:
		return &ml.Pipeline{Name: string(s.cfg.Model),
			Stages: []ml.Transformer{fr, im},
			Model:  tree.New(tree.DefaultOptions())}, nil
	case ModelLSVM:
		o := linear.DefaultOptions()
		o.C = 1 // standardized WoE features want moderate regularization
		o.Seed = s.cfg.Seed
		return &ml.Pipeline{Name: string(s.cfg.Model),
			Stages: []ml.Transformer{fr, im, &ml.StandardScaler{}},
			Model:  linear.New(o)}, nil
	case ModelNN:
		o := nn.DefaultOptions()
		o.Seed = s.cfg.Seed
		return &ml.Pipeline{Name: string(s.cfg.Model),
			Stages: []ml.Transformer{fr, im, &ml.StandardScaler{}, &ml.PCA{Components: 50}},
			Model:  nn.New(o)}, nil
	case ModelNBG:
		return &ml.Pipeline{Name: string(s.cfg.Model),
			Stages: []ml.Transformer{fr, im, &ml.StandardScaler{}},
			Model:  bayes.New(bayes.DefaultOptions(bayes.Gaussian))}, nil
	case ModelNBM, ModelNBC, ModelNBB:
		kind := bayes.Multinomial
		if s.cfg.Model == ModelNBC {
			kind = bayes.Complement
		} else if s.cfg.Model == ModelNBB {
			kind = bayes.Bernoulli
		}
		return &ml.Pipeline{Name: string(s.cfg.Model),
			Stages: []ml.Transformer{fr, im, &ml.MinMaxNormalizer{}},
			Model:  bayes.New(bayes.DefaultOptions(kind))}, nil
	case ModelDUM:
		return &ml.Pipeline{Name: string(s.cfg.Model), Model: dummy.New(s.cfg.Seed)}, nil
	case ModelRBC:
		return nil, nil // rule-based: no pipeline
	default:
		return nil, fmt.Errorf("core: unknown model %q", s.cfg.Model)
	}
}

// Fit trains Step 2: the WoE encoder observes the balanced training flow
// records at the flow level, then the classifier pipeline fits on the
// encoded per-target aggregates. trainRecords must be the records the
// aggregates were built from (their order is irrelevant for WoE). Rule
// mining (Step 1) must have happened before aggregation for rule
// annotations to exist; Fit itself never looks at them (no leakage).
func (s *Scrubber) Fit(trainRecords []netflow.Record, train []*features.Aggregate) error {
	if len(train) == 0 {
		return fmt.Errorf("core: empty training set")
	}
	start := time.Now()
	defer func() { s.metrics.observeFit(start) }()
	// Fit is transactional: everything is built on locals and installed
	// only after training succeeds. A failed fit leaves the previously
	// fitted encoder/pipeline serving — the degraded mode the daemon relies
	// on when a training window turns out to be garbage.
	enc := woe.NewEncoder()
	enc.Smoothing = s.cfg.WoESmoothing
	enc.MinCount = s.cfg.WoEMinCount
	features.ObserveRecords(enc, trainRecords)
	enc.Fit()

	p, err := s.buildPipeline()
	if err != nil {
		return err
	}
	if p != nil {
		x := s.encodeAllWith(enc, train)
		y := make([]int, len(train))
		for i, a := range train {
			if a.Label {
				y[i] = 1
			}
		}
		if err := p.Fit(x, y); err != nil {
			return fmt.Errorf("core: fitting %s: %w", s.cfg.Model, err)
		}
	}
	s.encoder = enc
	s.pipeline = p // nil for RBC, which needs no fitting
	s.fitted = true
	return nil
}

// encodeAll WoE-encodes a batch of aggregates into one flat backing array:
// row i is the sub-slice [i*NumColumns, (i+1)*NumColumns), so the batch
// costs a single allocation and rows never overlap. Encoding fans out over
// row shards on the worker pool; every slot depends only on its own
// aggregate and the read-only fitted encoder, so output is identical at any
// worker count.
func (s *Scrubber) encodeAll(aggs []*features.Aggregate) [][]float64 {
	return s.encodeAllWith(s.encoder, aggs)
}

// encodeAllWith encodes against an explicit encoder so Fit can train a
// candidate without touching the encoder currently serving predictions.
func (s *Scrubber) encodeAllWith(enc *woe.Encoder, aggs []*features.Aggregate) [][]float64 {
	nc := features.NumColumns
	flat := make([]float64, len(aggs)*nc)
	x := make([][]float64, len(aggs))
	enc.EnsureFitted() // no lazy refits inside the parallel region
	workers := par.Workers(s.cfg.Workers)
	if len(aggs) < 64 {
		workers = 1 // fan-out costs more than encoding a small batch
	}
	par.ForChunks(workers, len(aggs), func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			x[i] = features.Encode(enc, aggs[i], flat[i*nc:i*nc:(i+1)*nc])
		}
	})
	return x
}

// EncodeFeatures WoE-encodes aggregates against the scrubber's current
// encoder — the serving-path feature matrix. Exposed so shadow scoring and
// drift monitoring can reuse one encoded matrix instead of re-encoding per
// consumer.
func (s *Scrubber) EncodeFeatures(aggs []*features.Aggregate) [][]float64 {
	return s.encodeAll(aggs)
}

// PredictEncodedInto labels pre-encoded rows produced by EncodeFeatures
// with a compatible encoder into out (len(out) == len(x)). It skips the
// encode stage entirely, which is what keeps shadow scoring under 2× the
// champion-only cost: the challenger shares the champion window's encoded
// matrix. With a pipeline whose stages and model are Into-capable (the xgb
// default is), the serving path allocates nothing once the pipeline
// scratch has grown to the window size. Not safe for concurrent use with itself; see
// ml.Pipeline.PredictInto.
func (s *Scrubber) PredictEncodedInto(x [][]float64, out []int) error {
	if !s.fitted {
		return fmt.Errorf("core: model not fitted")
	}
	if s.pipeline == nil {
		return fmt.Errorf("core: PredictEncodedInto requires a pipeline model, have %s", s.cfg.Model)
	}
	if len(out) != len(x) {
		return fmt.Errorf("core: PredictEncodedInto needs %d output slots, have %d", len(x), len(out))
	}
	start := time.Now()
	s.pipeline.PredictInto(x, out)
	s.metrics.observePredict(start, out)
	return nil
}

// Predict labels aggregates (1 = DDoS target).
func (s *Scrubber) Predict(aggs []*features.Aggregate) ([]int, error) {
	if !s.fitted {
		return nil, fmt.Errorf("core: model not fitted")
	}
	if s.needsEncoder {
		return nil, fmt.Errorf("core: classifier-only bundle not bound to an encoder; call WithEncoder first")
	}
	start := time.Now()
	out := make([]int, len(aggs))
	if s.pipeline == nil { // RBC
		for i, a := range aggs {
			if len(a.RuleIDs) > 0 {
				out[i] = 1
			}
		}
		s.metrics.observePredict(start, out)
		return out, nil
	}
	out = s.pipeline.Predict(s.encodeAll(aggs))
	s.metrics.observePredict(start, out)
	return out, nil
}

// Evaluate scores the fitted model on test aggregates.
func (s *Scrubber) Evaluate(test []*features.Aggregate) (ml.Confusion, error) {
	pred, err := s.Predict(test)
	if err != nil {
		return ml.Confusion{}, err
	}
	y := make([]int, len(test))
	for i, a := range test {
		if a.Label {
			y[i] = 1
		}
	}
	return ml.Confuse(y, pred), nil
}

// EvaluatePerVector scores the fitted model separately for each ground
// truth vector (the per-vector Fβ columns of Table 3). Benign aggregates
// (vector "") count into every vector's negatives.
func (s *Scrubber) EvaluatePerVector(test []*features.Aggregate) (map[string]ml.Confusion, error) {
	pred, err := s.Predict(test)
	if err != nil {
		return nil, err
	}
	out := make(map[string]ml.Confusion)
	vectors := map[string]struct{}{}
	for _, a := range test {
		if a.Vector != "" && a.Label {
			vectors[a.Vector] = struct{}{}
		}
	}
	for v := range vectors {
		var c ml.Confusion
		for i, a := range test {
			truth := 0
			if a.Label {
				if a.Vector != v {
					continue // positives of other vectors are out of scope
				}
				truth = 1
			}
			switch {
			case truth == 1 && pred[i] == 1:
				c.TP++
			case truth == 1 && pred[i] == 0:
				c.FN++
			case truth == 0 && pred[i] == 1:
				c.FP++
			default:
				c.TN++
			}
		}
		out[v] = c
	}
	return out, nil
}

// WithEncoder returns a shallow transfer of this scrubber that keeps the
// fitted classifier but swaps in another vantage point's WoE encoder — the
// classifier-only geographic transfer of §6.4 (Fig. 12, right).
//
// The transfer assumes both encoders were fitted on comparable data
// volumes: WoE magnitudes grow with the log of a value's observation
// count, so a classifier whose split thresholds were learned against a
// months-long encoder underestimates evidence from an encoder fitted on
// hours of data. The paper's deployments satisfy this (every vantage
// point's encoder spans the full training window).
func (s *Scrubber) WithEncoder(enc *woe.Encoder) *Scrubber {
	t := *s
	t.encoder = enc
	t.needsEncoder = false
	return &t
}

// NeedsEncoder reports whether this scrubber is a classifier-only import
// still waiting for WithEncoder — true exactly for a scrubber loaded from
// a BundleClassifierOnly bundle. Receivers use it to classify an
// already-loaded bundle without re-parsing the envelope.
func (s *Scrubber) NeedsEncoder() bool { return s.needsEncoder }

// GenerateACLs emits per-target drop entries for every accepted rule — the
// deployment output once Step 2 flags targets.
func (s *Scrubber) GenerateACLs(targets []netip.Addr, action acl.Action) []acl.Entry {
	return acl.ForTargets(s.rules.Rules(), targets, action)
}

// TrainFlows is the end-to-end training entry point over a balanced flow
// set: mine Step 1 rules, aggregate with annotations, fit Step 2. vectors
// may be nil (production) or align with records (experiments).
func (s *Scrubber) TrainFlows(records []netflow.Record, vectors []string) error {
	if _, err := s.MineRules(records); err != nil {
		return err
	}
	return s.Fit(records, s.Aggregate(records, vectors))
}

// ImportanceEntry pairs a feature column with its gain importance.
type ImportanceEntry struct {
	Column string
	Gain   float64
}

// FeatureImportance returns the XGB per-column gain importances mapped back
// through the feature-reduction stage to original column names, descending
// (Figure 10). Only available for the XGB model.
func (s *Scrubber) FeatureImportance() ([]ImportanceEntry, error) {
	if s.pipeline == nil || s.cfg.Model != ModelXGB {
		return nil, fmt.Errorf("core: feature importance requires a fitted XGB model")
	}
	model, ok := s.pipeline.Model.(*xgb.Model)
	if !ok {
		return nil, fmt.Errorf("core: unexpected model type")
	}
	gains := model.GainImportance()
	names := features.ColumnNames()
	// Map reduced column indices back through the feature-reduction stage.
	var kept []int
	if len(s.pipeline.Stages) > 0 {
		if k, ok := s.pipeline.Stages[0].(interface{ Kept() []int }); ok {
			kept = k.Kept()
		}
	}
	out := make([]ImportanceEntry, 0, len(gains))
	for i, g := range gains {
		col := i
		if kept != nil && i < len(kept) {
			col = kept[i]
		}
		name := fmt.Sprintf("col%d", col)
		if col < len(names) {
			name = names[col]
		}
		out = append(out, ImportanceEntry{Column: name, Gain: g})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Gain > out[j].Gain })
	return out, nil
}
