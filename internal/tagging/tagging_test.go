package tagging

import (
	"bytes"
	"math"
	"net/netip"
	"sort"
	"strings"
	"testing"
	"testing/quick"

	"github.com/ixp-scrubber/ixpscrubber/internal/balance"
	"github.com/ixp-scrubber/ixpscrubber/internal/netflow"
	"github.com/ixp-scrubber/ixpscrubber/internal/synth"
)

func ntpRecord(bh bool) netflow.Record {
	return netflow.Record{
		Timestamp: 600,
		SrcIP:     netip.MustParseAddr("192.0.2.1"),
		DstIP:     netip.MustParseAddr("198.51.100.7"),
		SrcPort:   123, DstPort: 40000, Protocol: 17,
		Packets: 2048, Bytes: 2048 * 468, Blackholed: bh,
	}
}

func TestItemize(t *testing.T) {
	r := ntpRecord(true)
	items := ClassOf(&r).Items(nil)
	want := map[Item]bool{
		NewItem(FieldProtocol, 17):       true,
		NewItem(FieldSrcPort, 123):       true,
		NewItem(FieldDstPort, PortOther): true,
		NewItem(FieldSize, 4):            true, // 468 B -> (400,500]
	}
	if len(items) != len(want) {
		t.Fatalf("items = %v", ItemsString(items))
	}
	for _, it := range items {
		if !want[it] {
			t.Errorf("unexpected item %s", ItemString(it))
		}
	}
	if !sort.SliceIsSorted(items, func(i, j int) bool { return items[i] < items[j] }) {
		t.Error("items not sorted")
	}
}

func TestItemizeFragment(t *testing.T) {
	r := ntpRecord(true)
	r.Fragment = true
	r.SrcPort, r.DstPort = 0, 0
	items := ClassOf(&r).Items(nil)
	hasFrag, hasPort := false, false
	for _, it := range items {
		if it.Field() == FieldFragment {
			hasFrag = true
		}
		if it.Field() == FieldSrcPort || it.Field() == FieldDstPort {
			hasPort = true
		}
	}
	if !hasFrag {
		t.Error("fragment item missing")
	}
	if hasPort {
		t.Error("fragments must not carry port items (no L4 header)")
	}
}

func TestItemPacking(t *testing.T) {
	f := func(fv uint8, v uint32) bool {
		fld := Field(fv%6 + 1)
		it := NewItem(fld, v&0xFFFFFF)
		return it.Field() == fld && it.Value() == v&0xFFFFFF
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSizeBins(t *testing.T) {
	cases := []struct {
		size float64
		bin  uint32
	}{{0, 0}, {99, 0}, {100, 1}, {468, 4}, {1499, 14}, {1514, 15}, {9999, 15}, {-5, 0}}
	for _, c := range cases {
		if got := SizeBin(c.size); got != c.bin {
			t.Errorf("SizeBin(%v) = %d, want %d", c.size, got, c.bin)
		}
	}
	// Means beyond uint32 clamp into the open top bin; a plain conversion
	// wraps 2^32+100 into bin 1 and 2^33 and MaxUint64 into bin 0.
	for _, c := range []struct {
		bytes, packets uint64
		value          uint32
	}{
		{1<<32 - 1, 1, math.MaxUint32},
		{1<<32 + 100, 1, math.MaxUint32},
		{1 << 33, 1, math.MaxUint32},
		{math.MaxUint64, 1, math.MaxUint32},
	} {
		r := netflow.Record{Bytes: c.bytes, Packets: c.packets}
		if got := SizeValue(r.MeanPacketSize()); got != c.value {
			t.Errorf("SizeValue(%d/%d) = %d, want %d", c.bytes, c.packets, got, c.value)
		}
		if got := SizeBin(r.MeanPacketSize()); got != 15 {
			t.Errorf("SizeBin(%d/%d) = %d, want 15", c.bytes, c.packets, got)
		}
	}
	if SizeBinLabel(4) != "(400,500]" {
		t.Errorf("label = %s", SizeBinLabel(4))
	}
	if !strings.Contains(SizeBinLabel(15), "inf") {
		t.Errorf("label = %s", SizeBinLabel(15))
	}
}

func TestMineFrequentSmall(t *testing.T) {
	a, b, c := NewItem(FieldProtocol, 17), NewItem(FieldSrcPort, 123), NewItem(FieldSize, 4)
	txs := []Transaction{
		{Items: []Item{a, b, c}, Blackholed: true, Count: 1},
		{Items: []Item{a, b, c}, Blackholed: true, Count: 1},
		{Items: []Item{a, b}, Blackholed: true, Count: 1},
		{Items: []Item{a, c}, Blackholed: false, Count: 1},
		{Items: []Item{a}, Blackholed: false, Count: 1},
	}
	sets := MineFrequent(txs, 2)
	bySig := map[string]Itemset{}
	for _, s := range sets {
		bySig[ItemsString(s.Items)] = s
	}
	check := func(items []Item, count, bh int) {
		t.Helper()
		s, ok := bySig[ItemsString(sortedCopy(items))]
		if !ok {
			t.Fatalf("itemset %s not mined", ItemsString(items))
		}
		if s.Count != count || s.BHCount != bh {
			t.Errorf("%s: count=%d bh=%d, want %d/%d", ItemsString(items), s.Count, s.BHCount, count, bh)
		}
	}
	check([]Item{a}, 5, 3)
	check([]Item{b}, 3, 3)
	check([]Item{c}, 3, 2)
	check([]Item{a, b}, 3, 3)
	check([]Item{a, c}, 3, 2)
	check([]Item{a, b, c}, 2, 2)
	check([]Item{b, c}, 2, 2)
	// Nothing below min support.
	for _, s := range sets {
		if s.Count < 2 {
			t.Errorf("itemset %s below min support: %d", ItemsString(s.Items), s.Count)
		}
	}
}

// TestMineFrequentAgainstBruteForce cross-checks FP-Growth against a naive
// enumerator on random transactions.
func TestMineFrequentAgainstBruteForce(t *testing.T) {
	f := func(seed uint8, raw [][3]uint8, labels []bool) bool {
		if len(raw) == 0 {
			return true
		}
		if len(raw) > 24 {
			raw = raw[:24]
		}
		vocab := []Item{
			NewItem(FieldProtocol, 6), NewItem(FieldProtocol, 17),
			NewItem(FieldSrcPort, 53), NewItem(FieldSrcPort, 123),
			NewItem(FieldSize, 1), NewItem(FieldSize, 4),
		}
		txs := make([]Transaction, len(raw))
		for i, r := range raw {
			set := map[Item]bool{}
			for _, x := range r {
				set[vocab[int(x)%len(vocab)]] = true
			}
			var items []Item
			for it := range set {
				items = append(items, it)
			}
			bh := i < len(labels) && labels[i]
			txs[i] = Transaction{Items: sortedCopy(items), Blackholed: bh, Count: 1}
		}
		minCount := 1 + int(seed%3)
		got := MineFrequent(txs, minCount)
		gotMap := map[string][2]int{}
		for _, s := range got {
			gotMap[ItemsString(s.Items)] = [2]int{s.Count, s.BHCount}
		}
		// Brute force over all subsets of the vocabulary.
		for mask := 1; mask < 1<<len(vocab); mask++ {
			var subset []Item
			for b := 0; b < len(vocab); b++ {
				if mask&(1<<b) != 0 {
					subset = append(subset, vocab[b])
				}
			}
			subset = sortedCopy(subset)
			count, bh := 0, 0
			for _, tx := range txs {
				if containsAll(tx.Items, subset) {
					count++
					if tx.Blackholed {
						bh++
					}
				}
			}
			key := ItemsString(subset)
			if count >= minCount {
				g, ok := gotMap[key]
				if !ok || g[0] != count || g[1] != bh {
					return false
				}
			} else if _, ok := gotMap[key]; ok {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func containsAll(haystack, needles []Item) bool {
	i := 0
	for _, x := range haystack {
		if i < len(needles) && needles[i] == x {
			i++
		}
	}
	return i == len(needles)
}

func TestMinimizeRules(t *testing.T) {
	a, b, c := NewItem(FieldProtocol, 17), NewItem(FieldSrcPort, 123), NewItem(FieldSize, 4)
	general := Rule{ID: "g", Antecedent: []Item{a, b}, Confidence: 0.97, Support: 0.05}
	specific := Rule{ID: "s", Antecedent: []Item{a, b, c}, Confidence: 0.97, Support: 0.049}
	out := MinimizeRules([]Rule{general, specific}, 0.01, 0.01)
	if len(out) != 1 {
		t.Fatalf("kept %d rules, want 1", len(out))
	}
	if out[0].ID != "s" {
		t.Errorf("Algorithm 1 keeps the more specific rule; kept %q", out[0].ID)
	}

	// Large loss in support: both kept.
	general.Support = 0.5
	out = MinimizeRules([]Rule{general, specific}, 0.01, 0.01)
	if len(out) != 2 {
		t.Fatalf("kept %d rules, want 2 (support loss above Ls)", len(out))
	}

	// Large confidence advantage of the general rule: both kept.
	general.Support = 0.05
	general.Confidence = 0.999
	specific.Confidence = 0.85
	out = MinimizeRules([]Rule{general, specific}, 0.01, 0.01)
	if len(out) != 2 {
		t.Fatalf("kept %d rules, want 2 (confidence loss above Lc)", len(out))
	}
}

func TestMinimizeRulesChain(t *testing.T) {
	a, b, c := NewItem(FieldProtocol, 17), NewItem(FieldSrcPort, 123), NewItem(FieldSize, 4)
	r1 := Rule{ID: "1", Antecedent: []Item{a}, Confidence: 0.9, Support: 0.1}
	r2 := Rule{ID: "2", Antecedent: []Item{a, b}, Confidence: 0.9, Support: 0.1}
	r3 := Rule{ID: "3", Antecedent: []Item{a, b, c}, Confidence: 0.9, Support: 0.1}
	out := MinimizeRules([]Rule{r1, r2, r3}, 0.01, 0.01)
	if len(out) != 1 || out[0].ID != "3" {
		t.Fatalf("chain minimization kept %v", out)
	}
}

func TestIsProperSubset(t *testing.T) {
	a, b, c := Item(1), Item(2), Item(3)
	if !isProperSubset([]Item{a}, []Item{a, b}) {
		t.Error("a ⊂ ab")
	}
	if isProperSubset([]Item{a, b}, []Item{a, b}) {
		t.Error("equal sets are not proper subsets")
	}
	if isProperSubset([]Item{a, c}, []Item{a, b}) {
		t.Error("ac ⊄ ab")
	}
	if isProperSubset([]Item{a, b}, []Item{a}) {
		t.Error("longer cannot be subset")
	}
}

// TestMineOnSyntheticTraffic mines rules from a balanced synthetic dataset
// and checks the funnel shape of §5.1.1: all-consequent rules > blackhole
// rules > minimized rules, and that the minimized rules are dominated by
// known DDoS signatures.
func TestMineOnSyntheticTraffic(t *testing.T) {
	g := synth.NewGenerator(synth.ProfileUS1())
	flows := g.Generate(0, 300)
	balanced, _ := balance.Flows(1, flows)
	records := synth.Records(balanced)

	rules, rep := Mine(records, DefaultMineOptions())
	if len(rules) == 0 {
		t.Fatal("no rules mined")
	}
	if !(rep.RulesAllConsequents > rep.RulesBlackhole && rep.RulesBlackhole >= rep.RulesMinimized) {
		t.Errorf("funnel shape violated: %+v", rep)
	}
	if rep.RulesMinimized != len(rules) {
		t.Errorf("report/result mismatch: %d vs %d", rep.RulesMinimized, len(rules))
	}
	// Every rule respects the confidence floor.
	for _, r := range rules {
		if r.Confidence < 0.8 {
			t.Errorf("rule %s below confidence floor: %v", r.ID, r.Confidence)
		}
		if r.Status != StatusStaging {
			t.Errorf("mined rule not in staging: %v", r.Status)
		}
	}
	// An NTP signature must be among the mined rules (dominant vector).
	found := false
	for _, r := range rules {
		for _, it := range r.Antecedent {
			if it.Field() == FieldSrcPort && it.Value() == 123 {
				found = true
			}
		}
	}
	if !found {
		t.Error("no NTP rule mined from NTP-heavy traffic")
	}
}

func TestRuleSetCuration(t *testing.T) {
	a, b := NewItem(FieldProtocol, 17), NewItem(FieldSrcPort, 123)
	r1 := Rule{ID: ruleID([]Item{a, b}), Antecedent: []Item{a, b}, Confidence: 0.95, Support: 0.01, Status: StatusStaging}
	s := NewRuleSet([]Rule{r1})
	if err := s.SetStatus(r1.ID, StatusAccept, "NTP reflection"); err != nil {
		t.Fatal(err)
	}
	if got := s.Accepted(); len(got) != 1 || got[0].Notes != "NTP reflection" {
		t.Fatalf("accepted = %+v", got)
	}
	if err := s.SetStatus("nope", StatusAccept, ""); err == nil {
		t.Error("unknown rule must error")
	}
	// Merge: same rule updates stats but keeps status; new rule is staged.
	c := NewItem(FieldSize, 4)
	r1b := r1
	r1b.Confidence = 0.99
	r2 := Rule{ID: ruleID([]Item{a, c}), Antecedent: []Item{a, c}, Confidence: 0.9, Support: 0.005, Status: StatusAccept}
	added := s.Merge([]Rule{r1b, r2})
	if added != 1 {
		t.Errorf("added = %d", added)
	}
	rules := s.Rules()
	if len(rules) != 2 {
		t.Fatalf("len = %d", len(rules))
	}
	for _, r := range rules {
		switch r.ID {
		case r1.ID:
			if r.Status != StatusAccept || r.Confidence != 0.99 {
				t.Errorf("merged rule = %+v", r)
			}
		case r2.ID:
			if r.Status != StatusStaging {
				t.Errorf("new rule must stage, got %v", r.Status)
			}
		}
	}
	s.AcceptAll()
	if len(s.Accepted()) != 2 {
		t.Error("AcceptAll failed")
	}
}

func TestJSONRoundTrip(t *testing.T) {
	g := synth.NewGenerator(synth.ProfileUS2())
	flows := g.Generate(0, 240)
	balanced, _ := balance.Flows(2, flows)
	rules, _ := Mine(synth.Records(balanced), DefaultMineOptions())
	if len(rules) == 0 {
		t.Skip("no rules mined at this scale")
	}
	set := NewRuleSet(rules)
	set.SetStatus(rules[0].ID, StatusAccept, "checked against looking glass")

	var buf bytes.Buffer
	if err := set.Export(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Import(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != set.Len() {
		t.Fatalf("round trip lost rules: %d vs %d", got.Len(), set.Len())
	}
	want := set.Rules()
	have := got.Rules()
	for i := range want {
		if want[i].ID != have[i].ID || want[i].Status != have[i].Status ||
			ItemsString(want[i].Antecedent) != ItemsString(have[i].Antecedent) {
			t.Errorf("rule %d mismatch:\n want %+v\n have %+v", i, want[i], have[i])
		}
	}
}

func TestImportRejectsBadInput(t *testing.T) {
	if _, err := Import(strings.NewReader("{not json")); err == nil {
		t.Error("bad JSON accepted")
	}
	if _, err := Import(strings.NewReader(`[{"id":"x","confidence":1,"antecedent_support":1,"rule_status":"accept"}]`)); err == nil {
		t.Error("empty antecedent accepted")
	}
	if _, err := Import(strings.NewReader(`[{"id":"x","protocol":17,"confidence":1,"antecedent_support":1,"rule_status":"meh"}]`)); err == nil {
		t.Error("unknown status accepted")
	}
	if _, err := Import(strings.NewReader(`[{"id":"x","protocol":17,"port_src":"99999","confidence":1,"antecedent_support":1}]`)); err == nil {
		t.Error("out-of-range port accepted")
	}
}

func TestTaggerMatch(t *testing.T) {
	ntp := Rule{Antecedent: []Item{
		NewItem(FieldProtocol, 17), NewItem(FieldSrcPort, 123),
	}}
	ntp.ID = ruleID(ntp.Antecedent)
	frag := Rule{Antecedent: []Item{NewItem(FieldFragment, 1)}}
	frag.ID = ruleID(frag.Antecedent)
	tg := NewTagger([]Rule{ntp, frag})

	r := ntpRecord(false)
	if !tg.Matches(&r) {
		t.Error("NTP record must match")
	}
	hits := tg.Match(&r, nil)
	if len(hits) != 1 || tg.Rules()[hits[0]].ID != ntp.ID {
		t.Errorf("hits = %v", hits)
	}
	r.SrcPort = 80
	if tg.Matches(&r) {
		t.Error("HTTP-from-80? no — src port 80 UDP should not match NTP rule")
	}
	r.Fragment = true
	if !tg.Matches(&r) {
		t.Error("fragment rule must match")
	}
}

func TestTaggerAgainstGroundTruth(t *testing.T) {
	// Mine on one traffic sample, accept everything, evaluate on a second
	// sample: accepted rules should catch most attack flows and little
	// benign traffic (the §5.1.3 quality argument).
	g := synth.NewGenerator(synth.ProfileUS1())
	train := g.Generate(0, 240)
	test := g.Generate(240, 420)

	balancedTrain, _ := balance.Flows(3, train)
	rules, _ := Mine(synth.Records(balancedTrain), DefaultMineOptions())
	set := NewRuleSet(rules)
	set.Apply(DefaultAcceptPolicy())
	tg := NewTagger(set.Accepted())

	var attack, attackHit, benign, benignHit int
	for i := range test {
		f := &test[i]
		hit := tg.Matches(&f.Record)
		if f.Attack {
			attack++
			if hit {
				attackHit++
			}
		} else {
			benign++
			if hit {
				benignHit++
			}
		}
	}
	if attack == 0 || benign == 0 {
		t.Fatal("degenerate test traffic")
	}
	tpr := float64(attackHit) / float64(attack)
	fpr := float64(benignHit) / float64(benign)
	if tpr < 0.5 {
		t.Errorf("rule recall on attacks = %.3f, want > 0.5 (paper RBC tpr 0.847)", tpr)
	}
	if fpr > 0.1 {
		t.Errorf("rule false positive rate on benign = %.3f, want < 0.1 (paper 0.43%%)", fpr)
	}
}

func BenchmarkMine(b *testing.B) {
	g := synth.NewGenerator(synth.ProfileUS1())
	flows := g.Generate(0, 120)
	balanced, _ := balance.Flows(4, flows)
	records := synth.Records(balanced)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Mine(records, DefaultMineOptions())
	}
}

func BenchmarkTaggerMatch(b *testing.B) {
	g := synth.NewGenerator(synth.ProfileUS1())
	flows := g.Generate(0, 120)
	balanced, _ := balance.Flows(5, flows)
	rules, _ := Mine(synth.Records(balanced), DefaultMineOptions())
	set := NewRuleSet(rules)
	set.AcceptAll()
	tg := NewTagger(set.Accepted())
	rec := ntpRecord(false)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tg.Matches(&rec)
	}
}
