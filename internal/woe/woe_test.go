package woe

import (
	"bytes"
	"math"
	"net/netip"
	"testing"
	"testing/quick"
)

func TestWoESign(t *testing.T) {
	e := NewEncoder()
	// Port 123 appears mostly under the blackhole label, port 443 mostly
	// outside; port 80 is balanced.
	for i := 0; i < 90; i++ {
		e.Observe("src_port", KeyPort(123), true)
	}
	for i := 0; i < 10; i++ {
		e.Observe("src_port", KeyPort(123), false)
	}
	for i := 0; i < 90; i++ {
		e.Observe("src_port", KeyPort(443), false)
	}
	for i := 0; i < 10; i++ {
		e.Observe("src_port", KeyPort(443), true)
	}
	for i := 0; i < 50; i++ {
		e.Observe("src_port", KeyPort(80), true)
		e.Observe("src_port", KeyPort(80), false)
	}
	e.Fit()
	if w := e.WoE("src_port", KeyPort(123)); w <= 1.0 {
		t.Errorf("WoE(123) = %v, want strongly positive", w)
	}
	if w := e.WoE("src_port", KeyPort(443)); w >= -1.0 {
		t.Errorf("WoE(443) = %v, want strongly negative", w)
	}
	if w := e.WoE("src_port", KeyPort(80)); math.Abs(w) > 0.2 {
		t.Errorf("WoE(80) = %v, want near 0", w)
	}
}

func TestWoEUnknownIsNeutral(t *testing.T) {
	e := NewEncoder()
	e.Observe("src_port", KeyPort(123), true)
	e.Fit()
	if w := e.WoE("src_port", KeyPort(9999)); w != 0 {
		t.Errorf("unknown value WoE = %v, want 0", w)
	}
	if w := e.WoE("no_such_domain", 1); w != 0 {
		t.Errorf("unknown domain WoE = %v, want 0", w)
	}
}

func TestWoELazyRefit(t *testing.T) {
	e := NewEncoder()
	// Anchor observations on a second value so totals are not dominated by
	// the value under test.
	for i := 0; i < 100; i++ {
		e.Observe("d", 9, true)
		e.Observe("d", 9, false)
	}
	e.Observe("d", 1, true)
	// No explicit Fit: lookup must still work.
	if w := e.WoE("d", 1); w <= 0 {
		t.Errorf("lazy fit WoE = %v", w)
	}
	// More observations flip the sign.
	for i := 0; i < 100; i++ {
		e.Observe("d", 1, false)
	}
	if w := e.WoE("d", 1); w >= 0 {
		t.Errorf("after refit WoE = %v, want negative", w)
	}
}

func TestOverride(t *testing.T) {
	e := NewEncoder()
	for i := 0; i < 100; i++ {
		e.Observe("src_ip", 42, true)
		e.Observe("src_ip", 7, false) // anchor the benign side
	}
	e.Fit()
	if e.WoE("src_ip", 42) <= 0 {
		t.Fatal("setup: expected positive WoE")
	}
	e.Override("src_ip", 42, -5)
	if w := e.WoE("src_ip", 42); w != -5 {
		t.Errorf("override not applied: %v", w)
	}
	// Overrides survive refits.
	e.Observe("src_ip", 42, true)
	e.Fit()
	if w := e.WoE("src_ip", 42); w != -5 {
		t.Errorf("override lost after refit: %v", w)
	}
}

func TestAboveAndOverlap(t *testing.T) {
	a, b := NewEncoder(), NewEncoder()
	// a sees reflectors 1,2,3; b sees 3,4,5 — overlap 1/5.
	for _, k := range []uint64{1, 2, 3} {
		for i := 0; i < 50; i++ {
			a.Observe("src_ip", k, true)
		}
	}
	for i := 0; i < 150; i++ {
		a.Observe("src_ip", 99, false)
	}
	for _, k := range []uint64{3, 4, 5} {
		for i := 0; i < 50; i++ {
			b.Observe("src_ip", k, true)
		}
	}
	for i := 0; i < 150; i++ {
		b.Observe("src_ip", 98, false)
	}
	ka := a.Above("src_ip", 1.0)
	if len(ka) != 3 {
		t.Fatalf("Above = %v", ka)
	}
	got := Overlap(a, b, "src_ip", 1.0)
	if math.Abs(got-0.2) > 1e-9 {
		t.Errorf("overlap = %v, want 0.2", got)
	}
	if Overlap(NewEncoder(), NewEncoder(), "src_ip", 1.0) != 0 {
		t.Error("empty overlap must be 0")
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	e := NewEncoder()
	for i := 0; i < 40; i++ {
		e.Observe("src_port", KeyPort(123), true)
		e.Observe("src_port", KeyPort(443), false)
		e.Observe("src_ip", 7, true)
	}
	e.Override("src_ip", 1000, 3.5)
	e.Fit()

	var buf bytes.Buffer
	if err := e.Save(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []uint64{KeyPort(123), KeyPort(443)} {
		if got.WoE("src_port", k) != e.WoE("src_port", k) {
			t.Errorf("WoE mismatch for %d", k)
		}
	}
	if got.WoE("src_ip", 1000) != 3.5 {
		t.Error("override lost in round trip")
	}
	// Loaded encoders keep counting.
	for i := 0; i < 500; i++ {
		got.Observe("src_port", KeyPort(123), false)
	}
	if got.WoE("src_port", KeyPort(123)) >= e.WoE("src_port", KeyPort(123)) {
		t.Error("post-load observations have no effect")
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	if _, err := Load(bytes.NewReader([]byte("nope"))); err == nil {
		t.Error("garbage accepted")
	}
	if _, err := Load(bytes.NewReader([]byte(`{"domains":{"d":{"pos":{"abc":1},"neg":{}}}}`))); err == nil {
		t.Error("bad key accepted")
	}
}

func TestMinCountEvidenceFloor(t *testing.T) {
	e := NewEncoder()
	e.MinCount = 4
	// Anchor totals.
	for i := 0; i < 200; i++ {
		e.Observe("d", 100, true)
		e.Observe("d", 101, false)
	}
	// Value 1: three observations (below floor) — neutral.
	for i := 0; i < 3; i++ {
		e.Observe("d", 1, true)
	}
	// Value 2: five observations (above floor) — carries signal.
	for i := 0; i < 5; i++ {
		e.Observe("d", 2, true)
	}
	e.Fit()
	if w := e.WoE("d", 1); w != 0 {
		t.Errorf("below-floor value WoE = %v, want 0 (neutral like unknowns)", w)
	}
	if w := e.WoE("d", 2); w <= 0 {
		t.Errorf("above-floor value WoE = %v, want positive", w)
	}
	// One more observation pushes value 1 over the floor.
	e.Observe("d", 1, true)
	if w := e.WoE("d", 1); w <= 0 {
		t.Errorf("value crossing the floor WoE = %v, want positive", w)
	}
}

func TestKeyHelpers(t *testing.T) {
	v4 := netip.MustParseAddr("192.0.2.1")
	v6 := netip.MustParseAddr("2001:db8::1")
	if KeyAddr(v4) == KeyAddr(v6) {
		t.Error("v4/v6 collision")
	}
	if KeyAddr(v4) != KeyAddr(netip.MustParseAddr("192.0.2.1")) {
		t.Error("KeyAddr not deterministic")
	}
	// 4-in-6 maps to the same key as plain v4.
	mapped := netip.AddrFrom16(v4.As16())
	if KeyAddr(mapped) != KeyAddr(v4) {
		t.Error("4-in-6 key differs from v4 key")
	}
	if KeyMAC([6]byte{1, 2, 3, 4, 5, 6}) == KeyMAC([6]byte{1, 2, 3, 4, 5, 7}) {
		t.Error("MAC key collision")
	}
	if KeyPort(80) != 80 || KeyProto(17) != 17 {
		t.Error("scalar keys")
	}
}

// TestWoEMonotonicity: more positive evidence must not lower WoE.
func TestWoEMonotonicity(t *testing.T) {
	f := func(pos1, pos2, neg uint8) bool {
		p1, p2 := uint64(pos1), uint64(pos1)+uint64(pos2)
		mk := func(pos uint64) float64 {
			e := NewEncoder()
			for i := uint64(0); i < pos; i++ {
				e.Observe("d", 1, true)
			}
			for i := uint64(0); i < uint64(neg); i++ {
				e.Observe("d", 1, false)
			}
			// Anchor totals so P(x|y) denominators stay comparable.
			for i := 0; i < 300; i++ {
				e.Observe("d", 2, true)
				e.Observe("d", 2, false)
			}
			return e.WoE("d", 1)
		}
		return mk(p2) >= mk(p1)-1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkWoELookup(b *testing.B) {
	e := NewEncoder()
	for i := uint64(0); i < 10000; i++ {
		e.Observe("src_ip", i, i%3 == 0)
	}
	e.Fit()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.WoE("src_ip", uint64(i)%20000)
	}
}

func TestFingerprintDeterministic(t *testing.T) {
	build := func() *Encoder {
		e := NewEncoder()
		for i := uint64(0); i < 500; i++ {
			e.Observe("src_ip", i*7, i%3 == 0)
			e.Observe("dst_port", i%53, i%5 == 0)
		}
		e.Override("src_ip", 99, -2.5)
		return e
	}
	a, b := build(), build()
	if a.Fingerprint() != b.Fingerprint() {
		t.Fatal("identical encoders fingerprint differently")
	}
	// Fit state must not matter: the fingerprint hashes counts, not tables.
	a.Fit()
	if a.Fingerprint() != b.Fingerprint() {
		t.Fatal("fingerprint changed after Fit")
	}
	// Any extra observation changes it.
	b.Observe("src_ip", 12345, true)
	if a.Fingerprint() == b.Fingerprint() {
		t.Fatal("fingerprint blind to new observation")
	}
	// So does an override change.
	c := build()
	c.Override("src_ip", 99, -2.0)
	if c.Fingerprint() == a.Fingerprint() {
		t.Fatal("fingerprint blind to override value")
	}
	// Save/Load round trip preserves it.
	var buf bytes.Buffer
	if err := a.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Fingerprint() != a.Fingerprint() {
		t.Fatal("fingerprint changed across save/load")
	}
}

// TestObserveBatchMatchesObserve holds ObserveBatch to its contract: the
// counts, totals and saved bytes are those of the same Observe calls made
// one by one, domains created lazily in first-use order included.
func TestObserveBatchMatchesObserve(t *testing.T) {
	domains := []string{"src_ip", "dst_port", "unused"}
	one, batch := NewEncoder(), NewEncoder()
	batch.ObserveBatch(domains, func(*Tally) {}) // an empty batch creates nothing
	for round := uint64(0); round < 3; round++ {
		batch.ObserveBatch(domains, func(tl *Tally) {
			for i := uint64(0); i < 200; i++ {
				key, label := round*1000+i*7, (i+round)%3 == 0
				one.Observe("dst_port", i%53, label)
				tl.Observe(1, i%53, label)
				one.Observe("src_ip", key, !label)
				tl.Observe(0, key, !label)
			}
		})
	}
	if one.Fingerprint() != batch.Fingerprint() {
		t.Fatal("batched counts differ from one-by-one Observe")
	}
	var a, b bytes.Buffer
	if err := one.Save(&a); err != nil {
		t.Fatal(err)
	}
	if err := batch.Save(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatalf("saved bytes differ:\n%s\n%s", a.Bytes(), b.Bytes())
	}
	if got, want := batch.WoE("src_ip", 7), one.WoE("src_ip", 7); got != want {
		t.Fatalf("WoE after batch = %v, want %v", got, want)
	}
}
