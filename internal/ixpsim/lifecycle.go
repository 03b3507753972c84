package ixpsim

// Model lifecycle: the pipeline separates the *trainer* (the mutable
// Scrubber that accumulates rule history and refits every round) from the
// *champion* (the immutable model whose verdicts reach the ACL writer) and
// an optional *challenger* (scored in shadow on the same windows; its
// verdicts never leave the process).
//
// The champion lives behind an atomic.Pointer: promotion is a pointer flip
// observed by the serving path with no ingest pause and no lock on the hot
// path. With a registry configured, every trained model is published as an
// immutable versioned bundle first and the champion is the re-loaded
// registry copy, so what serves is byte-for-byte what is on disk. A failed
// publish is graceful degradation: the last-good champion keeps serving
// and the failure is counted.

import (
	"bytes"
	"context"
	"errors"
	"fmt"

	"github.com/ixp-scrubber/ixpscrubber/internal/core"
	"github.com/ixp-scrubber/ixpscrubber/internal/drift"
	"github.com/ixp-scrubber/ixpscrubber/internal/features"
	"github.com/ixp-scrubber/ixpscrubber/internal/netflow"
	"github.com/ixp-scrubber/ixpscrubber/internal/obs"
	"github.com/ixp-scrubber/ixpscrubber/internal/registry"
)

// PromotionPolicy gates challenger auto-promotion.
type PromotionPolicy struct {
	// ShadowRounds is how many completed shadow rounds a challenger needs
	// before it is considered for auto-promotion. 0 means 1.
	ShadowRounds int
	// MaxDisagreement is the cumulative champion/challenger disagreement
	// ratio above which auto-promotion is withheld (a divergent challenger
	// needs an explicit PromoteChallenger — the operator decision). 0
	// means 0.02; negative disables auto-promotion entirely.
	MaxDisagreement float64
}

func (pp PromotionPolicy) withDefaults() PromotionPolicy {
	if pp.ShadowRounds <= 0 {
		pp.ShadowRounds = 1
	}
	if pp.MaxDisagreement == 0 {
		pp.MaxDisagreement = 0.02
	}
	return pp
}

// served is one immutable model in a serving role (champion or challenger).
// The scrubber inside is never refitted; a new round builds a new served.
type served struct {
	s   *core.Scrubber
	seq uint64
	id  string // registry id; "" when not registry-backed
	// ref is the drift reference frozen from this model's training window;
	// installed into the monitor when the model becomes champion.
	ref *drift.Reference
	// imported marks a classifier-only transfer that re-binds to the local
	// encoder (Fig. 12).
	imported bool
	// Shadow accounting, mutated under lifeMu only.
	rounds    int
	shadowN   uint64
	disagreeN uint64
}

func (sv *served) disagreement() float64 {
	if sv.shadowN == 0 {
		return 0
	}
	return float64(sv.disagreeN) / float64(sv.shadowN)
}

// lifecycleMetrics surfaces model lifecycle and drift state; nil disables.
type lifecycleMetrics struct {
	activeSeq       *obs.Gauge
	promotions      *obs.Counter
	publishes       *obs.Counter
	publishFailures *obs.Counter
	invalidManifest *obs.Counter
	gcRemoved       *obs.Counter
	psiMean         *obs.Gauge
	psiMax          *obs.Gauge
	scorePSI        *obs.Gauge
	retrain         *obs.Gauge
	disagreement    *obs.Gauge
	shadowScored    *obs.Counter
}

func newLifecycleMetrics(r *obs.Registry) *lifecycleMetrics {
	return &lifecycleMetrics{
		activeSeq: r.Gauge("ixps_model_active_seq",
			"Sequence number of the model currently serving verdicts (0 = none)."),
		promotions: r.Counter("ixps_model_promotions_total",
			"Champion promotions (hot swaps) since start."),
		publishes: r.Counter("ixps_registry_publishes_total",
			"Model bundles committed to the registry."),
		publishFailures: r.Counter("ixps_registry_publish_failures_total",
			"Registry publishes that failed (last-good champion kept serving)."),
		invalidManifest: r.Counter("ixps_registry_invalid_manifests_total",
			"Registry manifests skipped as unreadable during scans."),
		gcRemoved: r.Counter("ixps_registry_gc_removed_total",
			"Model versions removed by registry garbage collection."),
		psiMean: r.Gauge("ixps_drift_feature_psi_mean",
			"Mean per-feature PSI of served windows vs the champion's training reference."),
		psiMax: r.Gauge("ixps_drift_feature_psi_max",
			"Maximum per-feature PSI vs the champion's training reference."),
		scorePSI: r.Gauge("ixps_drift_score_psi",
			"PSI of the champion's verdict distribution vs its training verdicts."),
		retrain: r.Gauge("ixps_drift_retrain_recommended",
			"1 when a drift or disagreement threshold is crossed, else 0."),
		disagreement: r.Gauge("ixps_shadow_disagreement_ratio",
			"Fraction of shadow-scored records where champion and challenger disagree."),
		shadowScored: r.Counter("ixps_shadow_scored_total",
			"Records scored by both champion and challenger."),
	}
}

// registryMetrics bridges the registry's counters onto the obs registry.
func (lm *lifecycleMetrics) registryMetrics() *registry.Metrics {
	return &registry.Metrics{
		Publishes:        lm.publishes.Inc,
		PublishFailures:  lm.publishFailures.Inc,
		InvalidManifests: lm.invalidManifest.Inc,
		GCRemoved:        func(n int) { lm.gcRemoved.Add(uint64(n)) },
	}
}

// ActiveModel reports the serving champion's sequence and registry id
// (0, "" before the first promotion).
func (p *Pipeline) ActiveModel() (uint64, string) {
	if ch := p.champion.Load(); ch != nil {
		return ch.seq, ch.id
	}
	return 0, ""
}

// DriftStats snapshots the serving-path drift monitor.
func (p *Pipeline) DriftStats() drift.Stats {
	return p.monitor.Stats()
}

// ChampionScrubber returns the serving model itself (nil before the first
// promotion). The scrubber is immutable — a new round builds a new one —
// so callers may score it concurrently with serving; cluster election
// scores it against imported candidates on a shared local encoding.
func (p *Pipeline) ChampionScrubber() *core.Scrubber {
	if ch := p.champion.Load(); ch != nil {
		return ch.s
	}
	return nil
}

// scoreAggs returns a model's verdicts plus the encoded matrix they were
// computed from. Models that bypass encoding (RBC) return a nil matrix.
func scoreAggs(s *core.Scrubber, aggs []*features.Aggregate) ([]int, [][]float64, error) {
	x := s.EncodeFeatures(aggs)
	pred := make([]int, len(x))
	if err := s.PredictEncodedInto(x, pred); err == nil {
		// The verdict slice escapes to the caller, but the pipeline's
		// intermediate matrices are reused round over round.
		return pred, x, nil
	}
	pred, err := s.Predict(aggs) // pipeline-less models (RBC, DUM)
	return pred, nil, err
}

// nextSeq assigns the next model sequence: the registry's manifest number
// when registry-backed (mirrored into the local counter), else the local
// monotonic counter.
func (p *Pipeline) nextSeq(m *registry.Manifest) uint64 {
	if m != nil {
		for {
			cur := p.seq.Load()
			if m.Seq <= cur || p.seq.CompareAndSwap(cur, m.Seq) {
				break
			}
		}
		return m.Seq
	}
	return p.seq.Add(1)
}

// windowBounds reports the (min, max) record timestamps, relying on no
// ordering of the window slice.
func windowBounds(records []netflow.Record) (int64, int64) {
	if len(records) == 0 {
		return 0, 0
	}
	lo, hi := records[0].Timestamp, records[0].Timestamp
	for _, r := range records[1:] {
		if r.Timestamp < lo {
			lo = r.Timestamp
		}
		if r.Timestamp > hi {
			hi = r.Timestamp
		}
	}
	return lo, hi
}

// buildCandidate wraps the freshly fitted trainer as a serving candidate.
// With a registry, the bundle is published first and the candidate is the
// re-loaded immutable copy — serialization round trips preserve
// predictions bit-for-bit, so the swap is invisible to ACL output. The
// drift reference freezes the candidate's training-window view.
func (p *Pipeline) buildCandidate(ctx context.Context, s *core.Scrubber, x [][]float64, pred []int, records []netflow.Record) (*served, error) {
	cand := &served{s: s}
	if x != nil {
		if ref, err := drift.NewReference(x, pred, drift.Config{}); err == nil {
			cand.ref = ref
		}
	}
	if p.cfg.Registry == nil {
		if p.cfg.Shadow {
			// Shadow mode needs the incumbent frozen while the trainer keeps
			// refitting, but without a registry cand.s aliases the trainer.
			// Clone through the bundle round trip (which preserves
			// predictions bit-for-bit) so champion and challenger really are
			// immutable snapshots.
			var buf bytes.Buffer
			if err := s.Save(&buf); err != nil {
				return nil, fmt.Errorf("ixpsim: freezing candidate: %w", err)
			}
			loaded, err := core.Load(&buf)
			if err != nil {
				return nil, fmt.Errorf("ixpsim: reloading frozen candidate: %w", err)
			}
			if p.cfg.Metrics != nil {
				loaded.SetMetrics(core.RegisterMetrics(p.cfg.Metrics))
			}
			cand.s = loaded
		}
		cand.seq = p.nextSeq(nil)
		return cand, nil
	}
	var buf bytes.Buffer
	if err := s.Save(&buf); err != nil {
		p.lm.countPublishFailure()
		return nil, fmt.Errorf("ixpsim: bundling candidate: %w", err)
	}
	from, to := windowBounds(records)
	parent := ""
	if ch := p.champion.Load(); ch != nil {
		parent = ch.id
	}
	m, err := p.cfg.Registry.Publish(ctx, buf.Bytes(), registry.Meta{
		TrainFromUnix:      from,
		TrainToUnix:        to,
		TrainRecords:       len(records),
		EncoderFingerprint: s.Encoder().Fingerprint(),
		Parent:             parent,
	})
	if err != nil {
		return nil, err
	}
	loaded, err := core.Load(bytes.NewReader(buf.Bytes()))
	if err != nil {
		return nil, fmt.Errorf("ixpsim: reloading published bundle: %w", err)
	}
	if p.cfg.Metrics != nil {
		loaded.SetMetrics(core.RegisterMetrics(p.cfg.Metrics))
	}
	cand.s = loaded
	cand.id = m.ID
	cand.seq = p.nextSeq(&m)
	return cand, nil
}

// countPublishFailure increments the failure counter when metrics exist.
// Registry-side failures already count through registryMetrics; this covers
// failures before the registry is reached (e.g. unserializable model).
func (lm *lifecycleMetrics) countPublishFailure() {
	if lm != nil {
		lm.publishFailures.Inc()
	}
}

// promoteLocked makes cand the champion: registry pointer flip (when
// backed), atomic hot swap of the serving pointer, fresh drift reference,
// registry GC. Callers hold lifeMu.
func (p *Pipeline) promoteLocked(ctx context.Context, cand *served) {
	if cand.imported {
		// Classifier-only transfer: bind the travelling trees to the
		// freshest local WoE snapshot at promotion time (§6.4).
		cand.s = cand.s.WithEncoder(p.trainer.Encoder())
	}
	if p.cfg.Registry != nil && cand.id != "" {
		if err := p.cfg.Registry.Promote(ctx, cand.id); err != nil {
			// The in-process swap still happens: serving beats bookkeeping.
			p.cfg.Log.Error("registry promote failed", "id", cand.id, "err", err)
		}
	}
	p.champion.Store(cand)
	p.monitor.SetReference(cand.ref)
	if p.lm != nil {
		p.lm.promotions.Inc()
		p.lm.activeSeq.Set(float64(cand.seq))
	}
	if p.cfg.Registry != nil {
		p.cfg.Registry.GC(registryKeep)
	}
	p.cfg.Log.Info("model promoted",
		"seq", cand.seq, "id", cand.id, "imported", cand.imported)
}

// registryKeep is how many unpinned, non-champion versions registry GC
// retains after each promotion.
const registryKeep = 3

// PromoteChallenger promotes the current challenger immediately — the
// operator override for a challenger whose disagreement keeps it from
// auto-promoting. The swap is atomic; in-flight scoring finishes against
// whichever champion it started with.
func (p *Pipeline) PromoteChallenger(ctx context.Context) error {
	p.lifeMu.Lock()
	defer p.lifeMu.Unlock()
	ch := p.challenger.Load()
	if ch == nil {
		return errors.New("ixpsim: no challenger installed")
	}
	p.promoteLocked(ctx, ch)
	p.challenger.Store(nil)
	return nil
}

// ImportClassifier installs a classifier-only bundle as the standing
// challenger. It shadow-scores every subsequent round against the local
// champion (re-bound to each window's fresh encoding) and follows the
// normal promotion policy. With a registry configured the import is also
// published (kind classifier-only, source imported) for provenance.
func (p *Pipeline) ImportClassifier(ctx context.Context, bundle []byte) error {
	info, err := core.InspectBundle(bundle)
	if err != nil {
		return fmt.Errorf("ixpsim: rejecting import: %w", err)
	}
	if info.Kind != core.BundleClassifierOnly {
		return fmt.Errorf("ixpsim: refusing to import %s bundle (classifier-only required; full bundles would overwrite local knowledge)", info.Kind)
	}
	s, err := core.Load(bytes.NewReader(bundle))
	if err != nil {
		return fmt.Errorf("ixpsim: loading import: %w", err)
	}
	if p.cfg.Metrics != nil {
		s.SetMetrics(core.RegisterMetrics(p.cfg.Metrics))
	}
	ch := &served{s: s, imported: true}
	if p.cfg.Registry != nil {
		m, err := p.cfg.Registry.ImportClassifier(ctx, bundle, registry.Meta{})
		if err != nil {
			return err
		}
		ch.id = m.ID
		ch.seq = p.nextSeq(&m)
	} else {
		ch.seq = p.nextSeq(nil)
	}
	p.lifeMu.Lock()
	p.challenger.Store(ch)
	p.lifeMu.Unlock()
	p.cfg.Log.Info("classifier-only model imported as challenger",
		"seq", ch.seq, "id", ch.id)
	return nil
}

// shadowScore runs the challenger over the round's shared encoded matrix
// and folds the disagreement into the monitor and the challenger's own
// account. Returns the cumulative disagreement ratio. Callers hold lifeMu.
func (p *Pipeline) shadowScoreLocked(ch *served, x [][]float64, champPred []int) float64 {
	if cap(p.shadowPred) < len(x) {
		p.shadowPred = make([]int, len(x))
	}
	challPred := p.shadowPred[:len(x)]
	if err := ch.s.PredictEncodedInto(x, challPred); err != nil {
		p.cfg.Log.Error("shadow scoring failed", "seq", ch.seq, "err", err)
		return ch.disagreement()
	}
	n := len(champPred)
	if len(challPred) < n {
		n = len(challPred)
	}
	for i := 0; i < n; i++ {
		if champPred[i] != challPred[i] {
			ch.disagreeN++
		}
	}
	ch.shadowN += uint64(n)
	ch.rounds++
	p.monitor.ObserveShadow(champPred[:n], challPred[:n])
	if p.lm != nil {
		p.lm.shadowScored.Add(uint64(n))
	}
	return ch.disagreement()
}

// publishDriftMetrics pushes the monitor snapshot onto the gauges.
func (p *Pipeline) publishDriftMetrics() {
	if p.lm == nil {
		return
	}
	s := p.monitor.Stats()
	p.lm.psiMean.Set(s.FeaturePSIMean)
	p.lm.psiMax.Set(s.FeaturePSIMax)
	p.lm.scorePSI.Set(s.ScorePSI)
	p.lm.disagreement.Set(s.Disagreement)
	if s.RetrainRecommended {
		p.lm.retrain.Set(1)
	} else {
		p.lm.retrain.Set(0)
	}
}

// restoreChampionFromRegistry installs the registry's champion as the
// serving model, if one exists and loads. Used at startup so a warm
// registry serves immediately even before the first local training round.
func (p *Pipeline) restoreChampionFromRegistry() bool {
	if p.cfg.Registry == nil {
		return false
	}
	m, bundle, err := p.cfg.Registry.Champion()
	if err != nil {
		return false
	}
	s, err := core.Load(bytes.NewReader(bundle))
	if err != nil {
		p.cfg.Log.Error("registry champion failed to load", "id", m.ID, "err", err)
		return false
	}
	if m.Kind == core.BundleClassifierOnly {
		// An imported champion re-binds to whatever local knowledge exists.
		s = s.WithEncoder(p.trainer.Encoder())
	}
	if p.cfg.Metrics != nil {
		s.SetMetrics(core.RegisterMetrics(p.cfg.Metrics))
	}
	ch := &served{s: s, seq: m.Seq, id: m.ID, imported: m.Source == registry.SourceImported}
	p.nextSeq(&m)
	p.lifeMu.Lock()
	p.champion.Store(ch)
	p.lifeMu.Unlock()
	p.trained.Store(true)
	if p.lm != nil {
		p.lm.activeSeq.Set(float64(ch.seq))
	}
	p.cfg.Log.Info("serving registry champion", "seq", ch.seq, "id", ch.id)
	return true
}
