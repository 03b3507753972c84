package core

import (
	"math"
	"net/netip"
	"strings"
	"testing"

	"github.com/ixp-scrubber/ixpscrubber/internal/acl"
	"github.com/ixp-scrubber/ixpscrubber/internal/balance"
	"github.com/ixp-scrubber/ixpscrubber/internal/features"
	"github.com/ixp-scrubber/ixpscrubber/internal/synth"
	"github.com/ixp-scrubber/ixpscrubber/internal/woe"
)

// balancedFlows generates a balanced synthetic training corpus once per
// test binary.
func balancedFlows(t *testing.T, seed uint64, minutes int64) ([]synth.Flow, []string) {
	t.Helper()
	p := synth.ProfileUS1()
	p.Seed = seed
	g := synth.NewGenerator(p)
	flows := g.Generate(0, minutes)
	bal, _ := balance.Flows(seed, flows)
	vectors := make([]string, len(bal))
	for i := range bal {
		vectors[i] = bal[i].Vector
	}
	return bal, vectors
}

func TestScrubberXGBEndToEnd(t *testing.T) {
	bal, vectors := balancedFlows(t, 1, 360)
	records := synth.Records(bal)
	cut := len(records) * 2 / 3
	for cut < len(records) && records[cut].Minute() == records[cut-1].Minute() {
		cut++
	}
	s := New(DefaultConfig())
	if _, err := s.MineRules(records[:cut]); err != nil {
		t.Fatal(err)
	}
	train := s.Aggregate(records[:cut], vectors[:cut])
	test := s.Aggregate(records[cut:], vectors[cut:])
	if len(train) < 100 || len(test) < 30 {
		t.Fatalf("aggregates: %d train / %d test", len(train), len(test))
	}
	if err := s.Fit(records[:cut], train); err != nil {
		t.Fatal(err)
	}
	c, err := s.Evaluate(test)
	if err != nil {
		t.Fatal(err)
	}
	if fb := c.FBeta(0.5); fb < 0.9 {
		t.Errorf("XGB Fβ = %.3f, want > 0.9 (paper: 0.989)", fb)
	}
}

func TestAllModelsTrainAndBeatChance(t *testing.T) {
	bal, vectors := balancedFlows(t, 2, 300)
	records := synth.Records(bal)
	cut := len(records) * 2 / 3
	for cut < len(records) && records[cut].Minute() == records[cut-1].Minute() {
		cut++
	}
	base := New(DefaultConfig())
	if _, err := base.MineRules(records[:cut]); err != nil {
		t.Fatal(err)
	}
	train := base.Aggregate(records[:cut], vectors[:cut])
	test := base.Aggregate(records[cut:], vectors[cut:])

	for _, model := range AllModels {
		s := New(Config{Model: model, Seed: 7, AutoAccept: true})
		s.SetRules(base.Rules())
		if err := s.Fit(records[:cut], train); err != nil {
			t.Fatalf("%s: %v", model, err)
		}
		c, err := s.Evaluate(test)
		if err != nil {
			t.Fatalf("%s: %v", model, err)
		}
		fb := c.FBeta(0.5)
		switch model {
		case ModelDUM:
			if fb < 0.3 || fb > 0.7 {
				t.Errorf("DUM Fβ = %.3f, want ~0.5", fb)
			}
		case ModelNBB: // weakest real model in the paper (0.769)
			if fb < 0.55 {
				t.Errorf("%s Fβ = %.3f", model, fb)
			}
		case ModelRBC:
			// Aggregate-level rule matching is sensitive to which rules the
			// small training window surfaces; the paper-scale number (0.917
			// on the SAS) is reproduced by the table3 experiment.
			if fb < 0.62 {
				t.Errorf("RBC Fβ = %.3f, want > 0.62", fb)
			}
		default:
			if fb < 0.8 {
				t.Errorf("%s Fβ = %.3f, want > 0.8", model, fb)
			}
		}
	}
}

func TestUnknownModelRejected(t *testing.T) {
	s := New(Config{Model: "nope"})
	bal, _ := balancedFlows(t, 3, 60)
	records := synth.Records(bal)
	aggs := s.Aggregate(records, nil)
	if err := s.Fit(records, aggs); err == nil {
		t.Fatal("unknown model accepted")
	}
}

func TestPredictBeforeFit(t *testing.T) {
	s := New(DefaultConfig())
	if _, err := s.Predict(nil); err == nil {
		t.Fatal("predict before fit must error")
	}
	if err := s.Fit(nil, nil); err == nil {
		t.Fatal("empty fit must error")
	}
}

func TestPerVectorEvaluation(t *testing.T) {
	s, test := quickScrubber(t)
	per, err := s.EvaluatePerVector(test)
	if err != nil {
		t.Fatal(err)
	}
	if len(per) < 3 {
		t.Fatalf("vectors scored = %d", len(per))
	}
	if c, ok := per["NTP"]; ok {
		if c.FBeta(0.5) < 0.8 {
			t.Errorf("NTP Fβ = %.3f", c.FBeta(0.5))
		}
	} else {
		t.Error("NTP missing from per-vector scores")
	}
}

func quickScrubber(t *testing.T) (*Scrubber, []*features.Aggregate) {
	t.Helper()
	bal, vectors := balancedFlows(t, 4, 300)
	records := synth.Records(bal)
	cut := len(records) * 2 / 3
	for cut < len(records) && records[cut].Minute() == records[cut-1].Minute() {
		cut++
	}
	s := New(DefaultConfig())
	if _, err := s.MineRules(records[:cut]); err != nil {
		t.Fatal(err)
	}
	if err := s.Fit(records[:cut], s.Aggregate(records[:cut], vectors[:cut])); err != nil {
		t.Fatal(err)
	}
	return s, s.Aggregate(records[cut:], vectors[cut:])
}

func TestClassifierOnlyTransfer(t *testing.T) {
	// Train at one IXP, predict at another with the classifier transferred
	// and the WoE encoder fitted locally (Fig. 12 right). WoE magnitudes
	// grow with the log of per-value observation counts, so the transfer
	// precondition — satisfied by the paper's months-long windows at every
	// site — is that both encoders accumulate comparable statistics; the
	// local window below is sized accordingly (see Scrubber.WithEncoder).
	s, _ := quickScrubber(t)

	p2 := synth.ProfileUS2()
	p2.BenignFlowsPerMin = 500
	p2.EpisodeRatePerMin = 0.3
	g2 := synth.NewGenerator(p2)
	encFlows, _ := balance.Flows(8, g2.Generate(0, 600))
	encRecords := synth.Records(encFlows)
	bal2, _ := balance.Flows(9, g2.Generate(600, 900))
	rec2 := synth.Records(bal2)
	aggs2 := s.Aggregate(rec2, nil)

	full, err := s.Evaluate(aggs2)
	if err != nil {
		t.Fatal(err)
	}
	// Fit the local encoder on the destination's own balanced records.
	local := woe.NewEncoder()
	local.MinCount = 4
	features.ObserveRecords(local, encRecords)
	local.Fit()
	transferred := s.WithEncoder(local)
	loc, err := transferred.Evaluate(aggs2)
	if err != nil {
		t.Fatal(err)
	}
	if loc.FBeta(0.5) < 0.78 {
		t.Errorf("classifier-only transfer Fβ = %.3f, want > 0.78 (paper: >0.98 with converged WoE)", loc.FBeta(0.5))
	}
	// Both transfer modes must stay far above chance; the local-vs-full
	// shape comparison across all site pairs is the fig12 experiment,
	// where every site's encoder sees a uniform window (the paper's
	// setting). At this test's window sizes, per-port WoE statistics have
	// not converged between sites, which caps local-encoder parity (see
	// EXPERIMENTS.md).
	if full.FBeta(0.5) < 0.85 {
		t.Errorf("full transfer Fβ = %.3f", full.FBeta(0.5))
	}
}

func TestFeatureImportance(t *testing.T) {
	s, _ := quickScrubber(t)
	imp, err := s.FeatureImportance()
	if err != nil {
		t.Fatal(err)
	}
	if len(imp) == 0 {
		t.Fatal("no importances")
	}
	if imp[0].Gain <= 0 {
		t.Errorf("top gain = %v", imp[0].Gain)
	}
	for i := 1; i < len(imp); i++ {
		if imp[i].Gain > imp[i-1].Gain {
			t.Fatal("importances not sorted")
		}
	}
	if !strings.Contains(imp[0].Column, "/") {
		t.Errorf("column name %q not mapped", imp[0].Column)
	}
	// Non-XGB models refuse.
	s2 := New(Config{Model: ModelDT})
	if _, err := s2.FeatureImportance(); err == nil {
		t.Error("DT importance must error")
	}
}

func TestExplain(t *testing.T) {
	s, test := quickScrubber(t)
	// Pick a positive aggregate.
	var target *features.Aggregate
	for _, a := range test {
		if a.Label && len(a.RuleIDs) > 0 {
			target = a
			break
		}
	}
	if target == nil {
		t.Fatal("no labeled aggregate with rule annotations")
	}
	ex, err := s.Explain(target)
	if err != nil {
		t.Fatal(err)
	}
	if len(ex.Evidence) == 0 {
		t.Fatal("no evidence")
	}
	if len(ex.Rules) == 0 {
		t.Fatal("annotated rules missing from explanation")
	}
	if math.IsNaN(ex.Score) {
		t.Error("XGB explanation should carry a probability score")
	}
	out := ex.String()
	for _, want := range []string{"target", "rule", "WoE"} {
		if !strings.Contains(out, want) {
			t.Errorf("explanation output missing %q:\n%s", want, out)
		}
	}
	// Evidence sorted by |WoE|.
	for i := 1; i < len(ex.Evidence); i++ {
		if math.Abs(ex.Evidence[i].WoE) > math.Abs(ex.Evidence[i-1].WoE)+1e-12 {
			t.Fatal("evidence not sorted by |WoE|")
		}
	}
}

func TestOverrideFlipsDecision(t *testing.T) {
	// The §6.6 mitigation: a false-positive-ish decision can be moved by
	// pinning feature WoE values.
	s, test := quickScrubber(t)
	var pos *features.Aggregate
	for _, a := range test {
		pred, err := s.Predict([]*features.Aggregate{a})
		if err != nil {
			t.Fatal(err)
		}
		if pred[0] == 1 {
			pos = a
			break
		}
	}
	if pos == nil {
		t.Skip("no positive prediction found")
	}
	// Pin every categorical of this aggregate deeply negative.
	for c := 0; c < features.NumCats; c++ {
		for m := 0; m < features.NumMets; m++ {
			for r := 0; r < features.R; r++ {
				if pos.Present[c][m][r] {
					s.Encoder().Override(features.CatNames[c], pos.Keys[c][m][r], -8)
				}
			}
		}
	}
	pred, err := s.Predict([]*features.Aggregate{pos})
	if err != nil {
		t.Fatal(err)
	}
	if pred[0] != 0 {
		t.Error("whitelisting all feature values did not flip the decision")
	}
}

func TestGenerateACLs(t *testing.T) {
	s, test := quickScrubber(t)
	pred, err := s.Predict(test)
	if err != nil {
		t.Fatal(err)
	}
	var targets []netip.Addr
	for i, a := range test {
		if pred[i] == 1 {
			targets = append(targets, a.Target)
		}
	}
	if len(targets) == 0 {
		t.Skip("no positives")
	}
	entries := s.GenerateACLs(targets[:1], acl.ActionDrop)
	if len(entries) == 0 {
		t.Fatal("no ACL entries for a flagged target")
	}
	text := acl.RenderText(entries)
	if !strings.Contains(text, targets[0].String()) {
		t.Error("ACL does not reference the flagged target")
	}
}

func TestTrainFlows(t *testing.T) {
	bal, vectors := balancedFlows(t, 5, 240)
	records := synth.Records(bal)
	s := New(DefaultConfig())
	if err := s.TrainFlows(records, vectors); err != nil {
		t.Fatal(err)
	}
	if s.Rules().Len() == 0 {
		t.Error("TrainFlows mined no rules")
	}
	c, err := s.Evaluate(s.Aggregate(records, vectors))
	if err != nil {
		t.Fatal(err)
	}
	if c.FBeta(0.5) < 0.95 {
		t.Errorf("in-sample Fβ = %.3f", c.FBeta(0.5))
	}
}

// TestTrainDeterminism: identical inputs must give identical predictions —
// the whole pipeline is seeded, so any divergence means unordered map
// iteration (or similar) leaked into results.
func TestTrainDeterminism(t *testing.T) {
	bal, vectors := balancedFlows(t, 11, 180)
	records := synth.Records(bal)
	run := func() []int {
		s := New(DefaultConfig())
		if err := s.TrainFlows(records, vectors); err != nil {
			t.Fatal(err)
		}
		pred, err := s.Predict(s.Aggregate(records, vectors))
		if err != nil {
			t.Fatal(err)
		}
		return pred
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("prediction %d differs between identical training runs", i)
		}
	}
}
