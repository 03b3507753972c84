package features

import (
	"bytes"
	"math"
	"net/netip"
	"testing"

	"github.com/ixp-scrubber/ixpscrubber/internal/balance"
	"github.com/ixp-scrubber/ixpscrubber/internal/netflow"
	"github.com/ixp-scrubber/ixpscrubber/internal/synth"
	"github.com/ixp-scrubber/ixpscrubber/internal/tagging"
	"github.com/ixp-scrubber/ixpscrubber/internal/woe"
)

func flow(min int64, src string, srcPort uint16, dst string, bytes, pkts uint64, bh bool) netflow.Record {
	return netflow.Record{
		Timestamp:  min * 60,
		SrcIP:      netip.MustParseAddr(src),
		DstIP:      netip.MustParseAddr(dst),
		SrcPort:    srcPort,
		DstPort:    44000,
		Protocol:   17,
		SrcMAC:     [6]byte{2, 0, 0, 0, 0, 1},
		Packets:    pkts,
		Bytes:      bytes,
		Blackholed: bh,
	}
}

func TestColumnGeometry(t *testing.T) {
	names := ColumnNames()
	if len(names) != NumColumns || NumColumns != 150 {
		t.Fatalf("column count = %d, want 150", len(names))
	}
	seen := map[string]bool{}
	for _, n := range names {
		if seen[n] {
			t.Fatalf("duplicate column %q", n)
		}
		seen[n] = true
	}
	if ColumnName(CatSrcPort, MetBytes, 0, false) != "port_src/bytes/0" {
		t.Errorf("naming = %q", ColumnName(CatSrcPort, MetBytes, 0, false))
	}
}

func TestAggregatorGroupsByMinuteAndTarget(t *testing.T) {
	// Minute 1: two targets; minute 2: one.
	aggs := AggregateRecords([]netflow.Record{
		flow(1, "192.0.2.1", 123, "198.51.100.7", 4096, 2, true),
		flow(1, "192.0.2.2", 123, "198.51.100.7", 2048, 1, false),
		flow(1, "192.0.2.1", 53, "203.0.113.5", 1024, 1, false),
		flow(2, "192.0.2.1", 123, "198.51.100.7", 4096, 2, false),
	}, nil, Options{})
	if len(aggs) != 3 {
		t.Fatalf("aggregates = %d, want 3", len(aggs))
	}
	// First two aggregates are minute 1 sorted by target.
	if aggs[0].Minute != 1 || aggs[1].Minute != 1 || aggs[2].Minute != 2 {
		t.Errorf("minutes = %d %d %d", aggs[0].Minute, aggs[1].Minute, aggs[2].Minute)
	}
	var victim *Aggregate
	for _, ag := range aggs {
		if ag.Minute == 1 && ag.Target == netip.MustParseAddr("198.51.100.7") {
			victim = ag
		}
	}
	if victim == nil {
		t.Fatal("victim aggregate missing")
	}
	if !victim.Label {
		t.Error("one blackholed flow must label the aggregate")
	}
	if victim.Flows != 2 {
		t.Errorf("flows = %d", victim.Flows)
	}
	// Top source IP by bytes is 192.0.2.1 (4096 > 2048).
	wantKey := woe.KeyAddr(netip.MustParseAddr("192.0.2.1"))
	if victim.Keys[CatSrcIP][MetBytes][0] != wantKey {
		t.Error("ranking top-1 by bytes wrong")
	}
	if victim.Mets[CatSrcIP][MetBytes][0] != 4096 {
		t.Errorf("metric value = %v", victim.Mets[CatSrcIP][MetBytes][0])
	}
	if !victim.Present[CatSrcIP][MetBytes][1] || victim.Present[CatSrcIP][MetBytes][2] {
		t.Error("presence mask: want exactly 2 source IPs present")
	}
	// Mean packet size ranking: r1 mean=2048, r2 mean=2048 — tie broken by key.
	if !victim.Present[CatSrcIP][MetPktSize][1] {
		t.Error("pkt size ranking missing second entry")
	}
}

func TestAggregatorLateFlowsDropped(t *testing.T) {
	aggs := AggregateRecords([]netflow.Record{
		flow(5, "192.0.2.1", 123, "198.51.100.7", 1024, 1, false),
		flow(4, "192.0.2.9", 99, "198.51.100.8", 1024, 1, false), // late: dropped
	}, nil, Options{})
	if len(aggs) != 1 {
		t.Fatalf("aggregates = %d", len(aggs))
	}
}

func TestRuleAnnotation(t *testing.T) {
	rule := tagging.Rule{
		ID: "ntp-rule",
		Antecedent: []tagging.Item{
			tagging.NewItem(tagging.FieldProtocol, 17),
			tagging.NewItem(tagging.FieldSrcPort, 123),
		},
	}
	tg := tagging.NewTagger([]tagging.Rule{rule})
	aggs := AggregateRecords([]netflow.Record{
		flow(1, "192.0.2.1", 123, "198.51.100.7", 4096, 2, true),
		flow(1, "192.0.2.1", 8080, "203.0.113.5", 4096, 2, false),
	}, []string{"NTP", ""}, Options{Tagger: tg})
	if len(aggs) != 2 {
		t.Fatal("aggregates")
	}
	for _, ag := range aggs {
		if ag.Target == netip.MustParseAddr("198.51.100.7") {
			if len(ag.RuleIDs) != 1 || ag.RuleIDs[0] != "ntp-rule" {
				t.Errorf("rules = %v", ag.RuleIDs)
			}
			if ag.Vector != "NTP" {
				t.Errorf("vector = %q", ag.Vector)
			}
		} else if len(ag.RuleIDs) != 0 {
			t.Errorf("benign aggregate annotated: %v", ag.RuleIDs)
		}
	}
}

func TestEncodeShapeAndMissing(t *testing.T) {
	r1 := flow(1, "192.0.2.1", 123, "198.51.100.7", 4096, 2, true)
	aggs := AggregateRecords([]netflow.Record{r1}, nil, Options{})
	enc := woe.NewEncoder()
	ObserveRecords(enc, []netflow.Record{r1})
	row := Encode(enc, aggs[0], nil)
	if len(row) != NumColumns {
		t.Fatalf("row len = %d", len(row))
	}
	// One flow: rank 0 present, ranks 1-4 missing -> NaN.
	if math.IsNaN(row[0]) {
		t.Error("rank-0 categorical must be present")
	}
	if !math.IsNaN(row[2]) {
		t.Error("rank-1 slot must be NaN with a single value")
	}
	// Metric slot for src_ip/pkt_size/0 is 2048.
	if row[1] != 2048 {
		t.Errorf("metric slot = %v", row[1])
	}
}

func TestObserveEncodesLabelSignal(t *testing.T) {
	enc := woe.NewEncoder()
	// Reflector 192.0.2.1 always attacks (label true), 192.0.2.9 is benign.
	for min := int64(1); min <= 40; min++ {
		r1 := flow(min, "192.0.2.1", 123, "198.51.100.7", 4096, 2, true)
		r2 := flow(min, "192.0.2.9", 443, "203.0.113.5", 2048, 2, false)
		ObserveRecords(enc, []netflow.Record{r1, r2})
	}
	attacker := enc.WoE("src_ip", woe.KeyAddr(netip.MustParseAddr("192.0.2.1")))
	benign := enc.WoE("src_ip", woe.KeyAddr(netip.MustParseAddr("192.0.2.9")))
	if attacker <= 1 {
		t.Errorf("attacker WoE = %v, want > 1", attacker)
	}
	if benign >= -1 {
		t.Errorf("benign WoE = %v, want < -1", benign)
	}
	port123 := enc.WoE("port_src", woe.KeyPort(123))
	if port123 <= 0 {
		t.Errorf("NTP port WoE = %v", port123)
	}
}

// observeRecordOracle is the per-record WoE observation ObserveRecords
// replaced: one Encoder.Observe call per categorical per record.
func observeRecordOracle(enc *woe.Encoder, rec *netflow.Record) {
	for c := 0; c < NumCats; c++ {
		enc.Observe(CatNames[c], catKey(c, rec), rec.Blackholed)
	}
}

// TestObserveRecordsMatchesPerRecord: the batch observation leaves the
// encoder with the same counts, totals and saved bytes as the per-record
// loop — on a real balanced window, on batches split at arbitrary points,
// and on an empty batch, which must not create the domains.
func TestObserveRecordsMatchesPerRecord(t *testing.T) {
	g := synth.NewGenerator(synth.ProfileUS2())
	balanced, _ := balance.Flows(3, g.Generate(0, 90))
	recs := synth.Records(balanced)
	if len(recs) < 1000 {
		t.Fatalf("only %d records", len(recs))
	}
	state := func(enc *woe.Encoder) (string, uint64) {
		var b bytes.Buffer
		if err := enc.Save(&b); err != nil {
			t.Fatal(err)
		}
		return b.String(), enc.Fingerprint()
	}
	for _, split := range [][]int{{}, {0}, {len(recs)}, {1, 17, len(recs) / 2}} {
		want := woe.NewEncoder()
		for i := range recs {
			observeRecordOracle(want, &recs[i])
		}
		got := woe.NewEncoder()
		from := 0
		for _, to := range append(split, len(recs)) {
			ObserveRecords(got, recs[from:to])
			from = to
		}
		wantBytes, wantFP := state(want)
		gotBytes, gotFP := state(got)
		if gotBytes != wantBytes || gotFP != wantFP {
			t.Fatalf("split %v: batch encoder differs from the per-record loop (fingerprint %x vs %x)", split, gotFP, wantFP)
		}
		if want.WoE("src_ip", woe.KeyAddr(recs[0].SrcIP)) != got.WoE("src_ip", woe.KeyAddr(recs[0].SrcIP)) {
			t.Fatalf("split %v: fitted WoE differs", split)
		}
	}
	empty := woe.NewEncoder()
	ObserveRecords(empty, nil)
	if gotBytes, _ := state(empty); gotBytes != `{"pos_total":0,"neg_total":0,"domains":{}}`+"\n" || len(empty.Domains()) != 0 {
		t.Fatalf("empty batch changed the encoder: %s", gotBytes)
	}
}

// TestEndToEndSyntheticSeparability: aggregates from balanced synthetic
// traffic, WoE-encoded, must carry enough signal that even a trivial
// threshold on the summed WoE separates most labels.
func TestEndToEndSyntheticSeparability(t *testing.T) {
	g := synth.NewGenerator(synth.ProfileUS1())
	flows := g.Generate(0, 240)
	balanced, _ := balance.Flows(1, flows)

	vecs := make([]string, len(balanced))
	for i := range balanced {
		vecs[i] = balanced[i].Vector
	}
	aggs := AggregateRecords(synth.Records(balanced), vecs, Options{})
	if len(aggs) < 50 {
		t.Fatalf("aggregates = %d", len(aggs))
	}
	enc := woe.NewEncoder()
	ObserveRecords(enc, synth.Records(balanced))
	correct := 0
	for _, ag := range aggs {
		row := Encode(enc, ag, nil)
		var sum float64
		for i := 0; i < len(row); i += 2 { // categorical slots only
			if !math.IsNaN(row[i]) {
				sum += row[i]
			}
		}
		pred := sum > 0
		if pred == ag.Label {
			correct++
		}
	}
	acc := float64(correct) / float64(len(aggs))
	if acc < 0.85 {
		t.Errorf("naive WoE-sum accuracy = %.3f, want > 0.85 (in-sample encoding)", acc)
	}
}

func BenchmarkAggregate(b *testing.B) {
	g := synth.NewGenerator(synth.ProfileUS1())
	recs := synth.Records(g.Generate(0, 10))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		AggregateRecords(recs, nil, Options{})
	}
}

func BenchmarkEncode(b *testing.B) {
	g := synth.NewGenerator(synth.ProfileUS1())
	recs := synth.Records(g.Generate(0, 5))
	aggs := AggregateRecords(recs, nil, Options{})
	enc := woe.NewEncoder()
	ObserveRecords(enc, recs)
	var row []float64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		row = Encode(enc, aggs[i%len(aggs)], row)
	}
}
