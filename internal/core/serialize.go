package core

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"

	"github.com/ixp-scrubber/ixpscrubber/internal/ml"
	"github.com/ixp-scrubber/ixpscrubber/internal/ml/xgb"
	"github.com/ixp-scrubber/ixpscrubber/internal/tagging"
	"github.com/ixp-scrubber/ixpscrubber/internal/woe"
)

// Model bundle serialization: a fitted Scrubber persists as one JSON
// envelope carrying the curated rule set, the WoE encoder (the local
// knowledge), the feature-reduction column selection and the fitted
// classifier. Bundles are what scrubberd persists across restarts, what the
// model registry versions, and what vantage points exchange for geographic
// transfer.
//
// Two bundle kinds exist (§6.4, Fig. 12): a full bundle carries everything
// including the WoE encoder; a classifier-only bundle strips the encoder so
// the local knowledge never leaves the vantage point — the importer re-binds
// the trees to its own encoder via WithEncoder.
//
// Serialization supports the recommended production model (XGB); for other
// classifiers retrain from the balanced data, which is cheap.

const bundleVersion = 1

// Bundle kinds.
const (
	// BundleFull is a complete model: rules, WoE encoder, classifier.
	BundleFull = "full"
	// BundleClassifierOnly omits the WoE encoder (it stays local); the
	// loaded scrubber must be bound to an encoder before predicting.
	BundleClassifierOnly = "classifier-only"
)

// bundleJSON is the envelope. It is declared as the members before the
// encoder, the encoder, and the members after it because save writes it
// that way: the encoder is nearly all of a full bundle, and it is spliced
// in as it is instead of being re-scanned as a json.RawMessage.
type bundleJSON struct {
	bundleHead
	Encoder json.RawMessage `json:"encoder,omitempty"`
	bundleTail
}

type bundleHead struct {
	Version int             `json:"version"`
	Kind    string          `json:"kind,omitempty"` // empty = full (pre-registry bundles)
	Model   ModelName       `json:"model"`
	Config  Config          `json:"config"`
	Rules   json.RawMessage `json:"rules"`
}

type bundleTail struct {
	Kept []int           `json:"kept_columns"`
	XGB  json.RawMessage `json:"xgb"`
}

// Save writes the fitted scrubber as a full JSON bundle. Only the XGB model
// is serializable.
func (s *Scrubber) Save(w io.Writer) error {
	return s.save(w, BundleFull)
}

// SaveClassifierOnly writes the bundle without the WoE encoder — the
// geographic-transfer export of §6.4 (Fig. 12, right): the trees, rules and
// column selection travel, the local knowledge stays home. Loading the
// result yields a scrubber that refuses to predict until WithEncoder binds
// it to the destination's local encoder.
func (s *Scrubber) SaveClassifierOnly(w io.Writer) error {
	return s.save(w, BundleClassifierOnly)
}

func (s *Scrubber) save(w io.Writer, kind string) error {
	if !s.fitted {
		return fmt.Errorf("core: cannot save an unfitted scrubber")
	}
	if s.cfg.Model != ModelXGB || s.pipeline == nil {
		return fmt.Errorf("core: model bundles support XGB only, have %s", s.cfg.Model)
	}
	model, ok := s.pipeline.Model.(*xgb.Model)
	if !ok {
		return fmt.Errorf("core: unexpected model type %T", s.pipeline.Model)
	}
	var rules, encoder, xgbBuf bytes.Buffer
	if err := s.rules.Export(&rules); err != nil {
		return err
	}
	if kind == BundleFull {
		if err := s.encoder.Save(&encoder); err != nil {
			return err
		}
	}
	if err := model.Save(&xgbBuf); err != nil {
		return err
	}
	// Both the original VarianceThreshold and the keptProjector a loaded
	// bundle carries expose Kept(), so a loaded scrubber re-saves (e.g.
	// registry classifier-only export) without losing its column selection.
	var kept []int
	if len(s.pipeline.Stages) > 0 {
		if k, ok := s.pipeline.Stages[0].(interface{ Kept() []int }); ok {
			kept = k.Kept()
		}
	}
	// Workers is a runtime parallelism knob, not model state: training and
	// inference are bit-exact at any worker count, so baking the count into
	// the bundle would give the same model different content hashes on
	// different machines. Normalize it out; loaders pick their own.
	cfg := s.cfg
	cfg.Workers = 0
	head, err := json.Marshal(&bundleHead{
		Version: bundleVersion,
		Kind:    kind,
		Model:   s.cfg.Model,
		Config:  cfg,
		Rules:   json.RawMessage(rules.Bytes()),
	})
	if err != nil {
		return fmt.Errorf("core: saving bundle: %w", err)
	}
	tail, err := json.Marshal(&bundleTail{Kept: kept, XGB: json.RawMessage(xgbBuf.Bytes())})
	if err != nil {
		return fmt.Errorf("core: saving bundle: %w", err)
	}
	// One object, as json.NewEncoder(w).Encode(&bundleJSON{...}) writes it:
	// head's members, the encoder, tail's members, a newline. The encoder's
	// own Save output is already what encoding/json would make of it —
	// compact, HTML-escaped — less its trailing newline.
	b := make([]byte, 0, len(head)+len(`,"encoder":`)+encoder.Len()+len(tail)+1)
	b = append(b, head[:len(head)-1]...)
	if kind == BundleFull {
		b = append(b, `,"encoder":`...)
		b = append(b, bytes.TrimSuffix(encoder.Bytes(), []byte("\n"))...)
	}
	b = append(b, ',')
	b = append(b, tail[1:]...)
	b = append(b, '\n')
	if _, err := w.Write(b); err != nil {
		return fmt.Errorf("core: saving bundle: %w", err)
	}
	return nil
}

// BundleInfo is the envelope metadata of a serialized bundle.
type BundleInfo struct {
	Version int
	Kind    string // BundleFull or BundleClassifierOnly
	Model   ModelName
}

// InspectBundle decodes only the bundle envelope — enough for a registry to
// classify a bundle without paying for a full model load.
func InspectBundle(data []byte) (BundleInfo, error) {
	var in struct {
		Version int       `json:"version"`
		Kind    string    `json:"kind"`
		Model   ModelName `json:"model"`
	}
	if err := json.Unmarshal(data, &in); err != nil {
		return BundleInfo{}, fmt.Errorf("core: inspecting bundle: %w", err)
	}
	if in.Version != bundleVersion {
		return BundleInfo{}, fmt.Errorf("core: unsupported bundle version %d", in.Version)
	}
	if in.Kind == "" {
		in.Kind = BundleFull
	}
	if in.Kind != BundleFull && in.Kind != BundleClassifierOnly {
		return BundleInfo{}, fmt.Errorf("core: unknown bundle kind %q", in.Kind)
	}
	return BundleInfo{Version: in.Version, Kind: in.Kind, Model: in.Model}, nil
}

// keptProjector replays a saved feature-reduction column selection.
type keptProjector struct {
	kept []int
}

// Fit is a no-op: the selection was made at save time.
func (k *keptProjector) Fit(x [][]float64, y []int) {}

// Kept returns the replayed column selection (feature-importance mapping).
func (k *keptProjector) Kept() []int { return k.kept }

// Transform projects rows onto the saved columns.
func (k *keptProjector) Transform(x [][]float64) [][]float64 {
	out := make([][]float64, len(x))
	for i, row := range x {
		o := make([]float64, len(k.kept))
		out[i] = o
		k.transformRow(o, row)
	}
	return out
}

// OutCols: the saved selection's width, regardless of input width.
func (k *keptProjector) OutCols(cols int) int { return len(k.kept) }

// TransformInto is the allocation-free Transform, keeping loaded bundles
// on the pipeline's zero-allocation PredictInto path.
func (k *keptProjector) TransformInto(x, out [][]float64) {
	for i, row := range x {
		k.transformRow(out[i], row)
	}
}

func (k *keptProjector) transformRow(o, row []float64) {
	for j, c := range k.kept {
		if c < len(row) {
			o[j] = row[c]
		} else {
			o[j] = 0
		}
	}
}

// Load reads a bundle saved with Save or SaveClassifierOnly and returns a
// Scrubber. A full bundle loads ready to predict; a classifier-only bundle
// loads with no encoder and refuses to predict until WithEncoder binds it
// to a local WoE snapshot.
func Load(r io.Reader) (*Scrubber, error) {
	var in bundleJSON
	if err := json.NewDecoder(r).Decode(&in); err != nil {
		return nil, fmt.Errorf("core: loading bundle: %w", err)
	}
	if in.Version != bundleVersion {
		return nil, fmt.Errorf("core: unsupported bundle version %d", in.Version)
	}
	if in.Model != ModelXGB {
		return nil, fmt.Errorf("core: bundle model %s not supported", in.Model)
	}
	kind := in.Kind
	if kind == "" {
		kind = BundleFull
	}
	if kind != BundleFull && kind != BundleClassifierOnly {
		return nil, fmt.Errorf("core: unknown bundle kind %q", in.Kind)
	}
	s := New(in.Config)
	rules, err := tagging.Import(bytes.NewReader(in.Rules))
	if err != nil {
		return nil, err
	}
	s.SetRules(rules)
	switch kind {
	case BundleFull:
		enc, err := woe.Load(bytes.NewReader(in.Encoder))
		if err != nil {
			return nil, err
		}
		enc.Smoothing = in.Config.WoESmoothing
		enc.MinCount = in.Config.WoEMinCount
		s.encoder = enc
	case BundleClassifierOnly:
		s.needsEncoder = true
	}
	model, err := xgb.Load(bytes.NewReader(in.XGB))
	if err != nil {
		return nil, err
	}
	s.pipeline = &ml.Pipeline{
		Name:   string(in.Model),
		Stages: []ml.Transformer{&keptProjector{kept: in.Kept}, &ml.Imputer{Value: -1}},
		Model:  model,
	}
	s.fitted = true
	return s, nil
}
