package tagging

import (
	"fmt"
	"reflect"
	"testing"

	"github.com/ixp-scrubber/ixpscrubber/internal/balance"
	"github.com/ixp-scrubber/ixpscrubber/internal/netflow"
	"github.com/ixp-scrubber/ixpscrubber/internal/synth"
)

// minedRecords is a seeded, balanced synthetic traffic window.
func minedRecords(seed uint64) []netflow.Record {
	p := synth.ProfileUS1()
	p.Seed = seed
	g := synth.NewGenerator(p)
	flows := g.Generate(0, 240)
	balanced, _ := balance.Flows(seed, flows)
	return synth.Records(balanced)
}

// minedTxs itemizes a seeded window the way Mine does: weighted, one
// transaction per distinct (Class, label).
func minedTxs(seed uint64) []Transaction { return weightedTransactions(minedRecords(seed)) }

// TestMineFrequentWorkersIdentical proves the per-header-item fan-out of
// FP-Growth emits the exact itemset sequence of the serial DFS: same sets,
// same counts, same order, at every pool size and seed.
func TestMineFrequentWorkersIdentical(t *testing.T) {
	for _, seed := range []uint64{7, 8, 9} {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			txs := minedTxs(seed)
			ref := MineFrequentWorkers(txs, 20, 1)
			if len(ref) == 0 {
				t.Fatal("serial mining returned nothing; test corpus too small")
			}
			for _, workers := range []int{2, 8} {
				got := MineFrequentWorkers(txs, 20, workers)
				if !reflect.DeepEqual(got, ref) {
					t.Fatalf("workers=%d: itemsets differ from serial (%d vs %d sets)",
						workers, len(got), len(ref))
				}
			}
		})
	}
}

// TestMineWorkersIdentical checks the full Step-1 pipeline (mining, rule
// generation, Algorithm-1 minimization) end to end across pool sizes.
func TestMineWorkersIdentical(t *testing.T) {
	for _, seed := range []uint64{7, 8, 9} {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			txs := minedTxs(seed)
			refOpts := DefaultMineOptions()
			refOpts.Workers = 1
			refRules, refRep := MineTransactions(txs, refOpts)
			if len(refRules) == 0 {
				t.Fatal("serial mining produced no rules")
			}
			for _, workers := range []int{2, 8} {
				opts := DefaultMineOptions()
				opts.Workers = workers
				rules, rep := MineTransactions(txs, opts)
				if !reflect.DeepEqual(rules, refRules) {
					t.Fatalf("workers=%d: rules differ from serial", workers)
				}
				if rep != refRep {
					t.Fatalf("workers=%d: mining report differs: %+v vs %+v", workers, rep, refRep)
				}
			}
		})
	}
}

// BenchmarkMineFrequentWorkers measures FP-Growth at explicit pool sizes.
func BenchmarkMineFrequentWorkers(b *testing.B) {
	txs := minedTxs(7)
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				MineFrequentWorkers(txs, 20, workers)
			}
		})
	}
}
