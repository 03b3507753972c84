// Package drift computes streaming model-drift statistics on the serving
// path — the operational half of the paper's Section 5 temporal-decay story
// (Fig. 10/11: models rot as attack vectors and reflector pools churn).
//
// Three signals, all cheap enough for the per-minute hot path:
//
//   - Feature PSI: Population Stability Index of the WoE-encoded feature
//     distributions against a reference histogram frozen from the
//     champion's training window. PSI = Σ (p−q)·ln(p/q) over quantile
//     bins; the conventional reading is <0.1 stable, 0.1–0.25 shifting,
//     >0.25 drifted.
//   - Score PSI: the same index over the classifier's verdict distribution
//     (binary, so two bins) — a model whose positive rate wanders from its
//     training positive rate is seeing a different world.
//   - Shadow disagreement: the fraction of records where champion and
//     challenger disagree. Only the champion's verdict reaches the ACL
//     writer; the challenger scores the same encoded matrix in shadow.
//
// Crossing any configured threshold raises RetrainRecommended. The package
// is pure computation over caller-supplied data: deterministic for a given
// observation sequence, no clocks, no goroutines.
package drift

import (
	"fmt"
	"math"
	"sort"
	"sync"
)

// Config sets binning and alerting thresholds.
type Config struct {
	// Bins is the number of quantile bins per feature (default 10).
	Bins int
	// MinCount is the minimum number of observed rows before PSI values
	// are considered meaningful; below it Stats reports zeros and never
	// recommends retraining (default 50).
	MinCount int
	// PSIThreshold flags feature drift when any column's PSI crosses it
	// (default 0.25, the conventional "significant shift" mark).
	PSIThreshold float64
	// ScorePSIThreshold flags verdict-distribution drift (default 0.25).
	ScorePSIThreshold float64
	// DisagreementThreshold flags champion/challenger divergence as the
	// fraction of records with differing verdicts (default 0.02).
	DisagreementThreshold float64
}

// DefaultConfig returns the production thresholds.
func DefaultConfig() Config {
	return Config{
		Bins:                  10,
		MinCount:              50,
		PSIThreshold:          0.25,
		ScorePSIThreshold:     0.25,
		DisagreementThreshold: 0.02,
	}
}

func (c Config) withDefaults() Config {
	if c.Bins <= 0 {
		c.Bins = 10
	}
	if c.MinCount <= 0 {
		c.MinCount = 50
	}
	if c.PSIThreshold <= 0 {
		c.PSIThreshold = 0.25
	}
	if c.ScorePSIThreshold <= 0 {
		c.ScorePSIThreshold = 0.25
	}
	if c.DisagreementThreshold <= 0 {
		c.DisagreementThreshold = 0.02
	}
	return c
}

// Reference is the frozen training-window view PSI compares against:
// per-column quantile bin edges with expected counts, plus the training
// verdict distribution. Build one per published model and store it next to
// the champion pointer; it is immutable after construction.
type Reference struct {
	bins    int
	cols    int
	edges   [][]float64 // per column: bins-1 ascending cut points
	counts  [][]uint64  // per column: bins+1 (last = NaN/invalid)
	rows    uint64
	posRate float64
	pos     uint64
	n       uint64
}

// NewReference builds the reference from the champion's training-window
// encoded feature matrix and its verdicts on that window. preds may be nil
// when no verdicts exist (score PSI then reports zero).
func NewReference(x [][]float64, preds []int, cfg Config) (*Reference, error) {
	cfg = cfg.withDefaults()
	if len(x) == 0 {
		return nil, fmt.Errorf("drift: empty reference matrix")
	}
	cols := len(x[0])
	r := &Reference{
		bins:   cfg.Bins,
		cols:   cols,
		edges:  make([][]float64, cols),
		counts: make([][]uint64, cols),
		rows:   uint64(len(x)),
	}
	col := make([]float64, 0, len(x))
	for c := 0; c < cols; c++ {
		col = col[:0]
		for _, row := range x {
			if c < len(row) && !math.IsNaN(row[c]) {
				col = append(col, row[c])
			}
		}
		sort.Float64s(col)
		r.edges[c] = quantileEdges(col, cfg.Bins)
		counts := make([]uint64, cfg.Bins+1)
		for _, row := range x {
			var v float64 = math.NaN()
			if c < len(row) {
				v = row[c]
			}
			counts[binOf(r.edges[c], cfg.Bins, v)]++
		}
		r.counts[c] = counts
	}
	for _, p := range preds {
		if p == 1 {
			r.pos++
		}
		r.n++
	}
	if r.n > 0 {
		r.posRate = float64(r.pos) / float64(r.n)
	}
	return r, nil
}

// quantileEdges picks bins-1 ascending cut points from sorted values.
// Duplicate quantiles collapse (constant columns yield zero usable edges;
// every value then lands in bin 0 and contributes no PSI).
func quantileEdges(sorted []float64, bins int) []float64 {
	edges := make([]float64, 0, bins-1)
	if len(sorted) == 0 {
		return edges
	}
	for i := 1; i < bins; i++ {
		idx := i * len(sorted) / bins
		if idx >= len(sorted) {
			idx = len(sorted) - 1
		}
		e := sorted[idx]
		if len(edges) == 0 || e > edges[len(edges)-1] {
			edges = append(edges, e)
		}
	}
	return edges
}

// binOf maps a value to its bin: 0..len(edges) by edge comparison, bins
// (the overflow slot) for NaN. Collapsed duplicate edges leave high bins
// permanently empty on both sides, which cancels in the PSI smoothing.
func binOf(edges []float64, bins int, v float64) int {
	if math.IsNaN(v) {
		return bins
	}
	// Binary search: first edge > v.
	lo, hi := 0, len(edges)
	for lo < hi {
		mid := (lo + hi) / 2
		if v <= edges[mid] {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

// psiFromCounts computes PSI between two count histograms of equal length
// with additive smoothing (c+0.5)/(N+0.5B), so empty bins on either side
// contribute bounded, symmetric terms instead of infinities.
func psiFromCounts(expected, actual []uint64) float64 {
	var ne, na uint64
	for i := range expected {
		ne += expected[i]
		na += actual[i]
	}
	if ne == 0 || na == 0 {
		return 0
	}
	b := float64(len(expected))
	psi := 0.0
	for i := range expected {
		p := (float64(expected[i]) + 0.5) / (float64(ne) + 0.5*b)
		q := (float64(actual[i]) + 0.5) / (float64(na) + 0.5*b)
		psi += (q - p) * math.Log(q/p)
	}
	return psi
}

// Stats is one drift snapshot.
type Stats struct {
	// Samples is the number of rows observed against the current reference.
	Samples uint64
	// FeaturePSIMean / FeaturePSIMax aggregate per-column PSI.
	FeaturePSIMean float64
	FeaturePSIMax  float64
	// MaxPSIColumn is the column index behind FeaturePSIMax (-1 when no
	// data).
	MaxPSIColumn int
	// ScorePSI is the verdict-distribution PSI (2 bins).
	ScorePSI float64
	// ShadowSamples counts records scored by both champion and challenger.
	ShadowSamples uint64
	// Disagreement is the fraction of shadow-scored records whose
	// champion and challenger verdicts differ.
	Disagreement float64
	// RetrainRecommended is set when any threshold is crossed.
	RetrainRecommended bool
}

// Monitor accumulates serving-path observations against a reference.
// Safe for concurrent use; all accumulation is O(bins) per row.
type Monitor struct {
	cfg Config

	mu        sync.Mutex
	ref       *Reference
	counts    [][]uint64 // per column histogram of observed rows
	rows      uint64
	scorePos  uint64
	scoreN    uint64
	shadowN   uint64
	disagreeN uint64
}

// NewMonitor returns a monitor with no reference: observations are dropped
// until SetReference installs one.
func NewMonitor(cfg Config) *Monitor {
	return &Monitor{cfg: cfg.withDefaults()}
}

// SetReference installs the champion's training reference and resets every
// accumulator — a promotion starts a fresh comparison window. A nil
// reference disables accumulation.
func (m *Monitor) SetReference(ref *Reference) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.ref = ref
	m.rows, m.scorePos, m.scoreN, m.shadowN, m.disagreeN = 0, 0, 0, 0, 0
	m.counts = nil
	if ref != nil {
		m.counts = make([][]uint64, ref.cols)
		for c := range m.counts {
			m.counts[c] = make([]uint64, ref.bins+1)
		}
	}
}

// ObserveFeatures folds one window's encoded feature matrix into the
// observed histograms.
func (m *Monitor) ObserveFeatures(x [][]float64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.ref == nil {
		return
	}
	for _, row := range x {
		for c := 0; c < m.ref.cols; c++ {
			var v float64 = math.NaN()
			if c < len(row) {
				v = row[c]
			}
			m.counts[c][binOf(m.ref.edges[c], m.ref.bins, v)]++
		}
	}
	m.rows += uint64(len(x))
}

// ObserveScores folds the champion's verdicts into the score distribution.
func (m *Monitor) ObserveScores(preds []int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.ref == nil {
		return
	}
	for _, p := range preds {
		if p == 1 {
			m.scorePos++
		}
		m.scoreN++
	}
}

// ObserveShadow records paired champion/challenger verdicts. Slices must
// align; extra elements on either side are ignored.
func (m *Monitor) ObserveShadow(champion, challenger []int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	n := len(champion)
	if len(challenger) < n {
		n = len(challenger)
	}
	for i := 0; i < n; i++ {
		if champion[i] != challenger[i] {
			m.disagreeN++
		}
	}
	m.shadowN += uint64(n)
}

// Stats computes the current drift snapshot. Pure function of the
// accumulated counts: same observations, same stats, bit for bit.
func (m *Monitor) Stats() Stats {
	m.mu.Lock()
	defer m.mu.Unlock()
	s := Stats{Samples: m.rows, MaxPSIColumn: -1, ShadowSamples: m.shadowN}
	if m.shadowN > 0 {
		s.Disagreement = float64(m.disagreeN) / float64(m.shadowN)
	}
	if m.ref != nil && m.rows >= uint64(m.cfg.MinCount) {
		sum := 0.0
		for c := 0; c < m.ref.cols; c++ {
			psi := psiFromCounts(m.ref.counts[c], m.counts[c])
			sum += psi
			if psi > s.FeaturePSIMax {
				s.FeaturePSIMax = psi
				s.MaxPSIColumn = c
			}
		}
		if m.ref.cols > 0 {
			s.FeaturePSIMean = sum / float64(m.ref.cols)
		}
		if m.ref.n > 0 && m.scoreN > 0 {
			exp := []uint64{m.ref.n - m.ref.pos, m.ref.pos}
			act := []uint64{m.scoreN - m.scorePos, m.scorePos}
			s.ScorePSI = psiFromCounts(exp, act)
		}
		s.RetrainRecommended = s.FeaturePSIMax > m.cfg.PSIThreshold ||
			s.ScorePSI > m.cfg.ScorePSIThreshold
	}
	if m.shadowN >= uint64(m.cfg.MinCount) && s.Disagreement > m.cfg.DisagreementThreshold {
		s.RetrainRecommended = true
	}
	return s
}

// FeaturePSI computes per-column PSI of a matrix against the reference
// without touching any monitor state — the offline batch entry point.
func (r *Reference) FeaturePSI(x [][]float64) (mean, max float64, maxCol int) {
	counts := make([][]uint64, r.cols)
	for c := range counts {
		counts[c] = make([]uint64, r.bins+1)
	}
	for _, row := range x {
		for c := 0; c < r.cols; c++ {
			var v float64 = math.NaN()
			if c < len(row) {
				v = row[c]
			}
			counts[c][binOf(r.edges[c], r.bins, v)]++
		}
	}
	maxCol = -1
	sum := 0.0
	for c := 0; c < r.cols; c++ {
		psi := psiFromCounts(r.counts[c], counts[c])
		sum += psi
		if psi > max {
			max = psi
			maxCol = c
		}
	}
	if r.cols > 0 {
		mean = sum / float64(r.cols)
	}
	return mean, max, maxCol
}
