package tagging

// Oracles for the Class-based Step 1: the sort-based Itemize that Class.Items
// replaced, the per-item MatchRecord loop that lowered tagger masks replaced,
// and one-transaction-per-record mining that weighted transactions replaced.
// Each test fails as soon as its path diverges from the one it replaced.

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"

	"github.com/ixp-scrubber/ixpscrubber/internal/netflow"
)

// itemizeOracle is the replaced Itemize: build the items, then sort them.
func itemizeOracle(r *netflow.Record) []Item {
	dst := []Item{NewItem(FieldProtocol, uint32(r.Protocol))}
	if r.Fragment {
		dst = append(dst, NewItem(FieldFragment, 1))
	} else {
		dst = append(dst,
			NewItem(FieldSrcPort, PortValue(r.SrcPort)),
			NewItem(FieldDstPort, PortValue(r.DstPort)),
		)
	}
	dst = append(dst, NewItem(FieldSize, SizeBin(r.MeanPacketSize())))
	sort.Slice(dst, func(i, j int) bool { return dst[i] < dst[j] })
	return dst
}

// matchOracle is the replaced Tagger.Match: the rules pinning a protocol,
// then the rules leaving it open, each checked item by item.
func matchOracle(rules []Rule, rec *netflow.Record) []int {
	var out []int
	for _, pinned := range []bool{true, false} {
		for i := range rules {
			hasProto := slices.ContainsFunc(rules[i].Antecedent, func(it Item) bool { return it.Field() == FieldProtocol })
			if hasProto == pinned && MatchRecord(rules[i].Antecedent, rec) {
				out = append(out, i)
			}
		}
	}
	return out
}

// edgePorts are the ports where the retained set starts, stops or has a
// hole: the range ends, and every catalog port with its neighbours.
func edgePorts() []uint16 {
	out := []uint16{0, 1, 1023, 1024, 1025, 65534, 65535}
	for _, p := range catalogPorts {
		out = append(out, p-1, p, p+1)
	}
	return out
}

// edgeSizes are (bytes, packets) pairs on and around every size-bin edge,
// zero packets, and means beyond uint32.
func edgeSizes() [][2]uint64 {
	out := [][2]uint64{{0, 0}, {5000, 0}, {1<<32 + 100, 1}, {math.MaxUint64, 1}, {1499, 1}, {3001, 2}}
	for b := uint64(0); b <= 16; b++ {
		for _, d := range []uint64{0, 1} {
			if b*SizeBinWidth >= d {
				out = append(out, [2]uint64{b*SizeBinWidth - d, 1})
			}
		}
	}
	return out
}

var classProtos = []uint8{0, 1, 6, 17, 47, 50, 255}

// randomClassRecord draws a record from the discretisation's edges.
func randomClassRecord(rng *rand.Rand) netflow.Record {
	ports := edgePorts()
	sizes := edgeSizes()
	port := func() uint16 {
		if rng.Intn(3) == 0 {
			return uint16(rng.Intn(65536))
		}
		return ports[rng.Intn(len(ports))]
	}
	sz := sizes[rng.Intn(len(sizes))]
	if rng.Intn(3) == 0 {
		sz = [2]uint64{uint64(rng.Intn(40000)), uint64(rng.Intn(40))}
	}
	return netflow.Record{
		Protocol:   classProtos[rng.Intn(len(classProtos))],
		SrcPort:    port(),
		DstPort:    port(),
		Fragment:   rng.Intn(6) == 0,
		Bytes:      sz[0],
		Packets:    sz[1],
		Blackholed: rng.Intn(2) == 0,
	}
}

func TestClassItemsMatchItemize(t *testing.T) {
	check := func(r *netflow.Record) {
		t.Helper()
		if got, want := ClassOf(r).Items(nil), itemizeOracle(r); !slices.Equal(got, want) {
			t.Fatalf("record %+v: Items %s, oracle %s", *r, ItemsString(got), ItemsString(want))
		}
	}
	// Every edge port on both sides, fragmented and not, at every edge size.
	for _, p := range edgePorts() {
		for _, sz := range edgeSizes() {
			for _, frag := range []bool{false, true} {
				r := netflow.Record{Protocol: 17, SrcPort: p, DstPort: 65535 - p, Fragment: frag, Bytes: sz[0], Packets: sz[1]}
				check(&r)
				r.SrcPort, r.DstPort = r.DstPort, r.SrcPort
				check(&r)
			}
		}
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 20000; i++ {
		r := randomClassRecord(rng)
		check(&r)
	}
	// Items appends: a non-empty dst keeps its prefix.
	r := ntpRecord(false)
	pre := []Item{NewItem(FieldSize, 9)}
	if got := ClassOf(&r).Items(pre); !slices.Equal(got[1:], itemizeOracle(&r)) || got[0] != pre[0] {
		t.Fatalf("Items did not append: %s", ItemsString(got))
	}
}

// randomAntecedent draws antecedents from the whole item vocabulary,
// including what no record satisfies: out-of-range protocols and bins,
// unretained literal ports, unknown fields, two values for one field, and
// fragment-plus-port conjunctions.
func randomAntecedent(rng *rand.Rand) []Item {
	ports := []uint32{0, 53, 123, 1023, 1024, 5000, 11211, PortOther}
	protos := []uint32{0, 1, 6, 17, 47, 255, 256, 0x1011}
	var items []Item
	for n := 1 + rng.Intn(4); len(items) < n; {
		var it Item
		switch rng.Intn(13) {
		case 0, 1, 2:
			it = NewItem(FieldProtocol, protos[rng.Intn(len(protos))])
		case 3, 4:
			it = NewItem(FieldSrcPort, ports[rng.Intn(len(ports))])
		case 5, 6:
			it = NewItem(FieldDstPort, ports[rng.Intn(len(ports))])
		case 7, 8:
			bin := uint32(rng.Intn(17)) // 16 is out of range
			if rng.Intn(10) == 0 {
				bin = 999
			}
			it = NewItem(FieldSize, bin)
		case 9, 10:
			it = NewItem(FieldFragment, uint32(rng.Intn(2))) // any value means "fragment"
		case 11:
			it = NewItem([]Field{0, fieldLabel, 7}[rng.Intn(3)], 1) // not an antecedent field
		default:
			if len(items) == 0 {
				continue
			}
			it = items[rng.Intn(len(items))] // duplicate
		}
		items = append(items, it)
	}
	return sortedCopy(items)
}

// recordFor biases a record toward satisfying the antecedent, so matches
// (and several candidate rules per record) actually occur.
func recordFor(rng *rand.Rand, ante []Item) netflow.Record {
	r := randomClassRecord(rng)
	for _, it := range ante {
		v := it.Value()
		switch it.Field() {
		case FieldProtocol:
			r.Protocol = uint8(v)
		case FieldSrcPort, FieldDstPort:
			p := uint16(v)
			if v == PortOther {
				p = uint16(30000 + rng.Intn(20000))
			}
			if it.Field() == FieldSrcPort {
				r.SrcPort = p
			} else {
				r.DstPort = p
			}
			r.Fragment = false
		case FieldSize:
			r.Bytes, r.Packets = uint64(v)*SizeBinWidth+uint64(rng.Intn(SizeBinWidth)), 1
		case FieldFragment:
			r.Fragment = true
		}
	}
	return r
}

func TestTaggerMatchesMatchRecord(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			rules := make([]Rule, 1+rng.Intn(60))
			for i := range rules {
				rules[i] = Rule{ID: fmt.Sprintf("r%d", i), Antecedent: randomAntecedent(rng)}
			}
			// The shapes the issue names, always present.
			rules = append(rules,
				Rule{ID: "contradiction", Antecedent: []Item{NewItem(FieldProtocol, 6), NewItem(FieldProtocol, 17)}},
				Rule{ID: "frag+port", Antecedent: sortedCopy([]Item{NewItem(FieldProtocol, 17), NewItem(FieldSrcPort, 123), NewItem(FieldFragment, 1)})},
				Rule{ID: "frag", Antecedent: []Item{NewItem(FieldProtocol, 17), NewItem(FieldFragment, 1)}},
				Rule{ID: "port0", Antecedent: []Item{NewItem(FieldSrcPort, 0)}},
				Rule{ID: "empty"},
			)
			tg := NewTagger(rules)
			var hits []int
			for k := 0; k < 3000; k++ {
				var rec netflow.Record
				if rng.Intn(2) == 0 {
					rec = recordFor(rng, rules[rng.Intn(len(rules))].Antecedent)
				} else {
					rec = randomClassRecord(rng)
				}
				want := matchOracle(rules, &rec)
				hits = tg.Match(&rec, hits[:0])
				if !slices.Equal(hits, want) {
					t.Fatalf("record %+v: Match %v, oracle %v", rec, hits, want)
				}
				if tg.Matches(&rec) != (len(want) > 0) {
					t.Fatalf("record %+v: Matches %v, oracle %v", rec, tg.Matches(&rec), want)
				}
			}
		})
	}
}

// expandedTxs is the replaced Mine input: one transaction per record.
func expandedTxs(records []netflow.Record) []Transaction {
	txs := make([]Transaction, len(records))
	for i := range records {
		txs[i] = Transaction{Items: itemizeOracle(&records[i]), Blackholed: records[i].Blackholed, Count: 1}
	}
	return txs
}

func TestWeightedMiningMatchesExpanded(t *testing.T) {
	for _, seed := range []uint64{7, 8} {
		records := minedRecords(seed)
		expanded := expandedTxs(records)
		weighted := weightedTransactions(records)
		if len(weighted) >= len(expanded)/4 {
			t.Fatalf("seed %d: %d weighted transactions for %d records: nothing collapsed", seed, len(weighted), len(expanded))
		}
		for _, workers := range []int{1, 2, 8} {
			t.Run(fmt.Sprintf("seed=%d/workers=%d", seed, workers), func(t *testing.T) {
				if got, want := MineFrequentWorkers(weighted, 20, workers), MineFrequentWorkers(expanded, 20, workers); !reflect.DeepEqual(got, want) {
					t.Fatalf("itemsets differ: %d weighted vs %d expanded", len(got), len(want))
				}
				opts := DefaultMineOptions()
				opts.Workers = workers
				want, wantRep := MineTransactions(expanded, opts)
				got, gotRep := MineTransactions(weighted, opts)
				if gotRep != wantRep || gotRep.Transactions != len(records) {
					t.Fatalf("report %+v, want %+v (%d records)", gotRep, wantRep, len(records))
				}
				if len(want) == 0 || len(got) != len(want) {
					t.Fatalf("%d rules, want %d", len(got), len(want))
				}
				for i := range want {
					g, w := &got[i], &want[i]
					if g.ID != w.ID || !slices.Equal(g.Antecedent, w.Antecedent) ||
						math.Float64bits(g.Support) != math.Float64bits(w.Support) ||
						math.Float64bits(g.Confidence) != math.Float64bits(w.Confidence) {
						t.Fatalf("rule %d: %v, want %v", i, g, w)
					}
				}
				if opts.Workers == 1 {
					rules, rep := Mine(records, opts)
					if !reflect.DeepEqual(rules, want) || rep != wantRep {
						t.Fatal("Mine differs from mining the expanded transactions")
					}
				}
			})
		}
	}
}

// fuzzRules is the fixed rule set FuzzClassOf checks the tagger on.
var fuzzRules = func() []Rule {
	rng := rand.New(rand.NewSource(99))
	rules := make([]Rule, 200)
	for i := range rules {
		rules[i] = Rule{ID: fmt.Sprintf("f%d", i), Antecedent: randomAntecedent(rng)}
	}
	return rules
}()

// FuzzClassOf: for any record, Class.Items equals the sort-based oracle and
// the tagger equals the per-item MatchRecord loop.
func FuzzClassOf(f *testing.F) {
	f.Add(uint8(17), uint16(123), uint16(40000), false, uint64(2048*468), uint64(2048))
	f.Add(uint8(17), uint16(0), uint16(0), true, uint64(1500), uint64(1))
	f.Add(uint8(6), uint16(1024), uint16(65535), false, uint64(0), uint64(0))
	f.Add(uint8(1), uint16(11212), uint16(1023), false, uint64(1<<32+100), uint64(1))
	f.Add(uint8(47), uint16(27015), uint16(1194), false, uint64(math.MaxUint64), uint64(1))
	tg := NewTagger(fuzzRules)
	f.Fuzz(func(t *testing.T, proto uint8, src, dst uint16, frag bool, bytes, packets uint64) {
		r := netflow.Record{Protocol: proto, SrcPort: src, DstPort: dst, Fragment: frag, Bytes: bytes, Packets: packets}
		if got, want := ClassOf(&r).Items(nil), itemizeOracle(&r); !slices.Equal(got, want) {
			t.Fatalf("Items %s, oracle %s", ItemsString(got), ItemsString(want))
		}
		if got, want := tg.Match(&r, nil), matchOracle(fuzzRules, &r); !slices.Equal(got, want) {
			t.Fatalf("Match %v, oracle %v", got, want)
		}
	})
}
