// Package bench provides one testing.B benchmark per reproduced table and
// figure (the deliverable (d) harness): each bench regenerates its artifact
// at a reduced scale and reports the wall time of the full regeneration.
// Run all with:
//
//	go test -bench=. -benchmem
//
// plus ablation benches for the design choices called out in DESIGN.md §5.
package bench

import (
	"testing"

	"github.com/ixp-scrubber/ixpscrubber/internal/balance"
	"github.com/ixp-scrubber/ixpscrubber/internal/core"
	"github.com/ixp-scrubber/ixpscrubber/internal/experiments"
	"github.com/ixp-scrubber/ixpscrubber/internal/features"
	"github.com/ixp-scrubber/ixpscrubber/internal/ml"
	"github.com/ixp-scrubber/ixpscrubber/internal/ml/xgb"
	"github.com/ixp-scrubber/ixpscrubber/internal/netflow"
	"github.com/ixp-scrubber/ixpscrubber/internal/synth"
	"github.com/ixp-scrubber/ixpscrubber/internal/tagging"
	"github.com/ixp-scrubber/ixpscrubber/internal/woe"
)

// benchCfg shrinks experiment windows so a full -bench=. run stays in
// minutes. The artifact shapes survive scaling (see EXPERIMENTS.md).
func benchCfg() experiments.Config { return experiments.Config{Scale: 0.12, Seed: 2} }

func benchExperiment(b *testing.B, id string) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := experiments.Run(id, benchCfg())
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Tables) == 0 && len(res.Series) == 0 {
			b.Fatalf("%s produced no output", id)
		}
	}
}

// One benchmark per paper artifact.

func BenchmarkTable2(b *testing.B)  { benchExperiment(b, "table2") }
func BenchmarkFig3a(b *testing.B)   { benchExperiment(b, "fig3a") }
func BenchmarkFig3c(b *testing.B)   { benchExperiment(b, "fig3c") }
func BenchmarkFig4a(b *testing.B)   { benchExperiment(b, "fig4a") }
func BenchmarkFig4b(b *testing.B)   { benchExperiment(b, "fig4b") }
func BenchmarkRuleCount(b *testing.B) { benchExperiment(b, "rulecount") }
func BenchmarkFig15(b *testing.B)   { benchExperiment(b, "fig15") }
func BenchmarkOperator(b *testing.B) { benchExperiment(b, "operator") }
func BenchmarkTable3(b *testing.B)  { benchExperiment(b, "table3") }
func BenchmarkTable4(b *testing.B)  { benchExperiment(b, "table4") }
func BenchmarkTable5(b *testing.B)  { benchExperiment(b, "table5") }
func BenchmarkFig10(b *testing.B)   { benchExperiment(b, "fig10") }
func BenchmarkFig11a(b *testing.B)  { benchExperiment(b, "fig11a") }
func BenchmarkFig11b(b *testing.B)  { benchExperiment(b, "fig11b") }
func BenchmarkFig12(b *testing.B)   { benchExperiment(b, "fig12") }
func BenchmarkFig13(b *testing.B)   { benchExperiment(b, "fig13") }
func BenchmarkFig14a(b *testing.B)  { benchExperiment(b, "fig14a") }
func BenchmarkFig14b(b *testing.B)  { benchExperiment(b, "fig14b") }
func BenchmarkFig16a(b *testing.B)  { benchExperiment(b, "fig16a") }
func BenchmarkFig16b(b *testing.B)  { benchExperiment(b, "fig16b") }

// BenchmarkHarnessWorkers measures the experiments harness fan-out at
// explicit pool sizes: one RunMany over a bundle of independent artifacts
// per iteration, with the shared corpus/bundle caches dropped first so
// every iteration pays full regeneration cost. Compare the workers=1
// sub-benchmark against the others to read the end-to-end speedup; the
// rendered artifacts are identical at every pool size.
func BenchmarkHarnessWorkers(b *testing.B) {
	ids := []string{"rulecount", "fig3c", "fig4a", "table3"}
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(map[int]string{1: "workers=1", 2: "workers=2", 4: "workers=4", 8: "workers=8"}[workers], func(b *testing.B) {
			cfg := benchCfg()
			cfg.Workers = workers
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				experiments.ResetCaches()
				n := 0
				if err := experiments.RunMany(cfg, ids, func(*experiments.Result) { n++ }); err != nil {
					b.Fatal(err)
				}
				if n != len(ids) {
					b.Fatalf("visited %d of %d artifacts", n, len(ids))
				}
			}
		})
	}
}

// Ablation benches (DESIGN.md §5): they measure quality under a design
// change and report it as a custom metric alongside cost.

// benchData builds a small train/test aggregate split shared by ablations.
func benchData(b *testing.B) (trainRecords []netflow.Record, trainAggs, testAggs []*features.Aggregate) {
	b.Helper()
	p := synth.ProfileUS1()
	p.Seed = 0xBE
	g := synth.NewGenerator(p)
	flows := g.Generate(0, 420)
	bal, _ := balance.Flows(9, flows)
	records := synth.Records(bal)
	vectors := make([]string, len(bal))
	for i := range bal {
		vectors[i] = bal[i].Vector
	}
	cut := len(records) * 2 / 3
	for cut < len(records) && records[cut].Minute() == records[cut-1].Minute() {
		cut++
	}
	s := core.New(core.DefaultConfig())
	if _, err := s.MineRules(records[:cut]); err != nil {
		b.Fatal(err)
	}
	return records[:cut], s.Aggregate(records[:cut], vectors[:cut]), s.Aggregate(records[cut:], vectors[cut:])
}

// BenchmarkAblationEncoding compares WoE encoding against identity (raw
// key) encoding of the categorical slots — the paper's implicit ablation:
// WoE is what makes categoricals learnable and transferable.
func BenchmarkAblationEncoding(b *testing.B) {
	trainRecords, trainAggs, testAggs := benchData(b)
	encode := func(enc *woe.Encoder, aggs []*features.Aggregate, identity bool) ([][]float64, []int) {
		x := make([][]float64, len(aggs))
		y := make([]int, len(aggs))
		for i, a := range aggs {
			row := features.Encode(enc, a, nil)
			if identity {
				// Replace WoE values by the raw categorical keys.
				k := 0
				for c := 0; c < features.NumCats; c++ {
					for m := 0; m < features.NumMets; m++ {
						for r := 0; r < features.R; r++ {
							if a.Present[c][m][r] {
								row[k] = float64(a.Keys[c][m][r] % (1 << 31))
							}
							k += 2
						}
					}
				}
			}
			x[i] = row
			if a.Label {
				y[i] = 1
			}
		}
		return x, y
	}
	for _, mode := range []struct {
		name     string
		identity bool
	}{{"woe", false}, {"identity", true}} {
		b.Run(mode.name, func(b *testing.B) {
			var fb float64
			for i := 0; i < b.N; i++ {
				enc := woe.NewEncoder()
				enc.MinCount = 4
				features.ObserveRecords(enc, trainRecords)
				enc.Fit()
				xtr, ytr := encode(enc, trainAggs, mode.identity)
				xte, yte := encode(enc, testAggs, mode.identity)
				pl := &ml.Pipeline{
					Stages: []ml.Transformer{&ml.VarianceThreshold{Min: 1e-12}, &ml.Imputer{Value: -1}},
					Model:  xgb.New(xgb.Options{Estimators: 24, MaxDepth: 6, Bins: 64}),
				}
				if err := pl.Fit(xtr, ytr); err != nil {
					b.Fatal(err)
				}
				fb = ml.Confuse(yte, pl.Predict(xte)).FBeta(0.5)
			}
			b.ReportMetric(fb, "Fβ")
		})
	}
}

// BenchmarkAblationXGBSplit compares histogram bin counts (the split
// finding fidelity/cost tradeoff).
func BenchmarkAblationXGBSplit(b *testing.B) {
	trainRecords, trainAggs, testAggs := benchData(b)
	enc := woe.NewEncoder()
	enc.MinCount = 4
	features.ObserveRecords(enc, trainRecords)
	enc.Fit()
	mk := func(aggs []*features.Aggregate) ([][]float64, []int) {
		x := make([][]float64, len(aggs))
		y := make([]int, len(aggs))
		for i, a := range aggs {
			x[i] = features.Encode(enc, a, nil)
			if a.Label {
				y[i] = 1
			}
		}
		return x, y
	}
	xtr, ytr := mk(trainAggs)
	xte, yte := mk(testAggs)
	for _, bins := range []int{8, 64, 254} {
		b.Run(map[int]string{8: "bins8", 64: "bins64", 254: "bins254"}[bins], func(b *testing.B) {
			var fb float64
			for i := 0; i < b.N; i++ {
				pl := &ml.Pipeline{
					Stages: []ml.Transformer{&ml.VarianceThreshold{Min: 1e-12}, &ml.Imputer{Value: -1}},
					Model:  xgb.New(xgb.Options{Estimators: 24, MaxDepth: 6, Bins: bins}),
				}
				if err := pl.Fit(xtr, ytr); err != nil {
					b.Fatal(err)
				}
				fb = ml.Confuse(yte, pl.Predict(xte)).FBeta(0.5)
			}
			b.ReportMetric(fb, "Fβ")
		})
	}
}

// BenchmarkAblationBalance compares training on balanced vs raw-imbalanced
// data, the motivation for §3.
func BenchmarkAblationBalance(b *testing.B) {
	p := synth.ProfileUS1().RealisticImbalance()
	p.Seed = 0xBA
	g := synth.NewGenerator(p)
	flows := g.Generate(0, 600)
	cut := len(flows) * 2 / 3
	for cut < len(flows) && flows[cut].Minute() == flows[cut-1].Minute() {
		cut++
	}
	test := flows[cut:]
	balTrain, _ := balance.Flows(3, flows[:cut])
	for _, mode := range []struct {
		name  string
		train []synth.Flow
	}{{"balanced", balTrain}, {"unbalanced", flows[:cut]}} {
		b.Run(mode.name, func(b *testing.B) {
			var fb float64
			for i := 0; i < b.N; i++ {
				s := core.New(core.DefaultConfig())
				vec := make([]string, len(mode.train))
				for j := range mode.train {
					vec[j] = mode.train[j].Vector
				}
				if err := s.TrainFlows(synth.Records(mode.train), vec); err != nil {
					b.Fatal(err)
				}
				balTest, _ := balance.Flows(4, test)
				aggs := s.Aggregate(synth.Records(balTest), nil)
				conf, err := s.Evaluate(aggs)
				if err != nil {
					b.Fatal(err)
				}
				fb = conf.FBeta(0.5)
			}
			b.ReportMetric(fb, "Fβ")
		})
	}
}

// BenchmarkAblationRuleMinimization measures the curation load with and
// without Algorithm 1.
func BenchmarkAblationRuleMinimization(b *testing.B) {
	p := synth.ProfileUS1()
	p.Seed = 0xAB
	g := synth.NewGenerator(p)
	bal, _ := balance.Flows(5, g.Generate(0, 240))
	records := synth.Records(bal)
	b.Run("with-alg1", func(b *testing.B) {
		var n int
		for i := 0; i < b.N; i++ {
			rules, _ := tagging.Mine(records, tagging.DefaultMineOptions())
			n = len(rules)
		}
		b.ReportMetric(float64(n), "rules")
	})
	b.Run("without-alg1", func(b *testing.B) {
		var n int
		for i := 0; i < b.N; i++ {
			opts := tagging.DefaultMineOptions()
			opts.LossConfidence = -1
			opts.LossSupport = -1
			rules, _ := tagging.Mine(records, opts)
			n = len(rules)
		}
		b.ReportMetric(float64(n), "rules")
	})
}
