package synth

import (
	"math"
	"math/rand/v2"
	"net/netip"
	"testing"

	"github.com/ixp-scrubber/ixpscrubber/internal/packet"
	"github.com/ixp-scrubber/ixpscrubber/internal/sflow"
)

func testProfile() Profile {
	p := profileScaled("TEST", 0x7E57, 40, 300, 0.3)
	p.BlackholeDelayMin = 1
	return p
}

func TestGeneratorDeterminism(t *testing.T) {
	g1 := NewGenerator(testProfile())
	g2 := NewGenerator(testProfile())
	f1 := g1.Generate(1000, 1030)
	f2 := g2.Generate(1000, 1030)
	if len(f1) != len(f2) {
		t.Fatalf("lengths differ: %d vs %d", len(f1), len(f2))
	}
	for i := range f1 {
		if f1[i] != f2[i] {
			t.Fatalf("flow %d differs:\n%+v\n%+v", i, f1[i], f2[i])
		}
	}
}

func TestGeneratorSeedsDiffer(t *testing.T) {
	p2 := testProfile()
	p2.Seed = 0xBEEF
	f1 := NewGenerator(testProfile()).Generate(1000, 1005)
	f2 := NewGenerator(p2).Generate(1000, 1005)
	same := len(f1) == len(f2)
	if same {
		for i := range f1 {
			if f1[i] != f2[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Fatal("different seeds produced identical traffic")
	}
}

func TestGeneratorMonotonicMinutes(t *testing.T) {
	g := NewGenerator(testProfile())
	g.GenerateMinute(100, nil)
	defer func() {
		if recover() == nil {
			t.Fatal("going back in time must panic")
		}
	}()
	g.GenerateMinute(99, nil)
}

func TestFlowTimestampsInsideMinute(t *testing.T) {
	g := NewGenerator(testProfile())
	for _, f := range g.Generate(500, 505) {
		if f.Minute() < 500 || f.Minute() >= 505 {
			t.Fatalf("flow minute %d outside [500,505)", f.Minute())
		}
		if err := f.Record.Validate(); err != nil {
			t.Fatalf("invalid record: %v", err)
		}
	}
}

// TestClassMixture checks the statistical shapes the experiments rely on:
// attack flows exist, blackholed flows are mostly attack but contain benign
// contamination, and benign traffic has a small share of well-known DDoS
// service ports.
func TestClassMixture(t *testing.T) {
	g := NewGenerator(testProfile())
	flows := g.Generate(10000, 10000+360) // 6 hours

	var benign, attack, bhTotal, bhAttack, benignWellKnown, benignFrag, bhFrag int
	for _, f := range flows {
		if f.Attack {
			attack++
		} else {
			benign++
			if IsWellKnownDDoSPort(f.Protocol, f.SrcPort) {
				benignWellKnown++
			}
			if f.Fragment {
				benignFrag++
			}
		}
		if f.Blackholed {
			bhTotal++
			if f.Attack {
				bhAttack++
			}
			if f.Fragment {
				bhFrag++
			}
		}
	}
	if attack == 0 || benign == 0 {
		t.Fatalf("degenerate mixture: %d attack, %d benign", attack, benign)
	}
	if bhTotal == 0 {
		t.Fatal("no blackholed flows generated")
	}
	attackShareInBH := float64(bhAttack) / float64(bhTotal)
	if attackShareInBH < 0.75 || attackShareInBH > 0.99 {
		t.Errorf("attack share in blackhole = %.3f, want ~0.85-0.9", attackShareInBH)
	}
	wkShare := float64(benignWellKnown) / float64(benign)
	if wkShare < 0.02 || wkShare > 0.2 {
		t.Errorf("benign well-known DDoS port share = %.3f, want ~0.075", wkShare)
	}
	// Fragments: benign share an order of magnitude below blackhole share.
	benignFragShare := float64(benignFrag) / float64(benign)
	bhFragShare := float64(bhFrag) / float64(bhTotal)
	if bhFragShare < 3*benignFragShare {
		t.Errorf("fragment shares: blackhole %.4f vs benign %.4f (want >> benign)", bhFragShare, benignFragShare)
	}
}

func TestBlackholeEventsMatchLabels(t *testing.T) {
	g := NewGenerator(testProfile())
	flows := g.Generate(2000, 2240)
	events := g.Events()

	// Build windows from events.
	type window struct{ from, to int64 }
	open := map[netip.Prefix]int64{}
	windows := map[netip.Prefix][]window{}
	for _, ev := range events {
		if ev.Announce {
			open[ev.Prefix] = ev.At
		} else {
			windows[ev.Prefix] = append(windows[ev.Prefix], window{open[ev.Prefix], ev.At})
			delete(open, ev.Prefix)
		}
	}
	for p, from := range open {
		windows[p] = append(windows[p], window{from, math.MaxInt64})
	}

	for _, f := range flows {
		if !f.Blackholed {
			continue
		}
		p := netip.PrefixFrom(f.DstIP, 32)
		covered := false
		for _, w := range windows[p] {
			if f.Timestamp >= w.from && f.Timestamp < w.to {
				covered = true
				break
			}
		}
		if !covered {
			t.Fatalf("blackholed flow at %d to %v has no covering event window", f.Timestamp, f.DstIP)
		}
	}
}

func TestVectorStartGate(t *testing.T) {
	p := testProfile()
	start := int64(3000 * 60)
	p.VectorWeights = map[string]float64{"NTP": 0.5, "memcached": 0.5}
	p.VectorStart = map[string]int64{"memcached": start}
	p.EpisodeRatePerMin = 1.0
	g := NewGenerator(p)

	early := g.Generate(1000, 1100)
	for _, f := range early {
		if f.Vector == "memcached" {
			t.Fatal("memcached attack before its start date")
		}
	}
	late := g.Generate(3100, 3300)
	found := false
	for _, f := range late {
		if f.Vector == "memcached" {
			found = true
			break
		}
	}
	if !found {
		t.Error("memcached never appeared after its start date")
	}
}

func TestReflectorPoolsNearlyDisjoint(t *testing.T) {
	g1 := NewGenerator(ProfileCE1())
	g2 := NewGenerator(ProfileUS1())
	for _, vec := range []string{"NTP", "DNS", "LDAP"} {
		set := map[netip.Addr]bool{}
		for _, ip := range g1.refl[vec] {
			set[ip] = true
		}
		overlap := 0
		for _, ip := range g2.refl[vec] {
			if set[ip] {
				overlap++
			}
		}
		if overlap > len(g2.refl[vec])/20 {
			t.Errorf("%s reflector overlap between IXPs = %d of %d", vec, overlap, len(g2.refl[vec]))
		}
	}
}

func TestIngressMACConsistency(t *testing.T) {
	g := NewGenerator(testProfile())
	ip := netip.MustParseAddr("8.8.8.8")
	m1 := g.ingressMAC(ip)
	m2 := g.ingressMAC(ip)
	if m1 != m2 {
		t.Error("ingress MAC not consistent for one source IP")
	}
}

func TestVectorOf(t *testing.T) {
	if got := VectorOf(17, 123, false); got != "NTP" {
		t.Errorf("NTP = %q", got)
	}
	if got := VectorOf(17, 0, true); got != "UDP Fragm." {
		t.Errorf("fragment = %q", got)
	}
	if got := VectorOf(6, 53, false); got != "DNS (TCP)" {
		t.Errorf("dns tcp = %q", got)
	}
	if got := VectorOf(47, 0, false); got != "GRE" {
		t.Errorf("gre = %q", got)
	}
	if got := VectorOf(6, 49152, false); got != "" {
		t.Errorf("ephemeral tcp = %q", got)
	}
}

func TestProfiles(t *testing.T) {
	ps := Profiles()
	if len(ps) != 5 {
		t.Fatalf("want 5 profiles, got %d", len(ps))
	}
	seen := map[string]bool{}
	for _, p := range ps {
		if seen[p.Name] {
			t.Errorf("duplicate profile %s", p.Name)
		}
		seen[p.Name] = true
		if p.Members <= 0 || p.BenignFlowsPerMin <= 0 {
			t.Errorf("%s: degenerate profile %+v", p.Name, p)
		}
	}
	// Size ordering mirrors Table 2.
	if !(ps[0].BenignFlowsPerMin > ps[1].BenignFlowsPerMin && ps[1].BenignFlowsPerMin > ps[4].BenignFlowsPerMin) {
		t.Error("profiles not ordered by size")
	}
	if _, err := ProfileByName("IXP-SE"); err != nil {
		t.Error(err)
	}
	if _, err := ProfileByName("nope"); err == nil {
		t.Error("want error for unknown profile")
	}
}

func TestSelfAttackSet(t *testing.T) {
	cfg := DefaultSelfAttackConfig()
	cfg.ToMin = cfg.FromMin + 12*60 // 12h window to keep the test fast
	cfg.Attacks = 30
	flows := SelfAttackSet(cfg)

	var attack, benign, mislabeled int
	for _, f := range flows {
		if f.Attack {
			attack++
			if !f.Blackholed {
				mislabeled++
			}
		} else {
			benign++
			if f.Blackholed {
				mislabeled++
			}
		}
	}
	if attack == 0 || benign == 0 {
		t.Fatalf("degenerate SAS: %d attack / %d benign", attack, benign)
	}
	if mislabeled != 0 {
		t.Errorf("%d flows with label != ground truth (SAS labels must be ground truth)", mislabeled)
	}
	// WS-Discovery must be present in the SAS (it is nearly absent from
	// blackholing data, Fig. 4b).
	foundWSD := false
	for _, f := range flows {
		if f.Vector == "WS-Discovery" {
			foundWSD = true
			break
		}
	}
	if !foundWSD {
		t.Error("WS-Discovery missing from SAS vector mix")
	}
}

func TestFrameForRoundTrip(t *testing.T) {
	g := NewGenerator(testProfile())
	flows := g.Generate(100, 103)
	var b packet.Builder
	var p packet.Packet
	for i := range flows {
		f := &flows[i]
		frame, err := FrameFor(f, &b)
		if err != nil {
			t.Fatalf("FrameFor: %v", err)
		}
		if len(frame) > MaxSampledHeader {
			t.Fatalf("frame %d exceeds sampled header cap: %d", i, len(frame))
		}
		if err := p.Decode(frame); err != nil {
			t.Fatalf("decode generated frame: %v (flow %+v)", err, f)
		}
		if p.Protocol() != packet.IPProtocol(f.Protocol) {
			t.Fatalf("protocol mismatch: %v vs %d", p.Protocol(), f.Protocol)
		}
		srcIP := netip.AddrFrom4(p.IP4.SrcIP)
		if srcIP != f.SrcIP {
			t.Fatalf("src ip mismatch: %v vs %v", srcIP, f.SrcIP)
		}
		if f.Fragment != (p.IP4.Flags&0x1 != 0 || p.IP4.FragOffset != 0) { // MF or non-first
			t.Fatalf("fragment flag mismatch")
		}
		if !f.Fragment {
			s, d := p.Ports()
			if s != f.SrcPort || d != f.DstPort {
				t.Fatalf("ports mismatch: %d/%d vs %d/%d", s, d, f.SrcPort, f.DstPort)
			}
		}
	}
}

func TestSampleFor(t *testing.T) {
	g := NewGenerator(testProfile())
	flows := g.Generate(100, 101)
	var b packet.Builder
	s, err := SampleFor(&flows[0], 7, &b)
	if err != nil {
		t.Fatal(err)
	}
	if s.SamplingRate != flows[0].SamplingRate {
		t.Error("sampling rate lost")
	}
	if s.FrameLength != uint32(flows[0].Bytes/flows[0].Packets) {
		t.Error("frame length mismatch")
	}
	if _, err := sflow.Append(nil, &sflow.Datagram{
		AgentAddress: netip.MustParseAddr("10.0.0.1"),
		Samples:      []sflow.FlowSample{s},
	}); err != nil {
		t.Fatal(err)
	}
}

func TestPoissonMoments(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	for _, lambda := range []float64{0.5, 4, 32, 200} {
		n := 20000
		var sum, sum2 float64
		for i := 0; i < n; i++ {
			x := float64(poisson(rng, lambda))
			sum += x
			sum2 += x * x
		}
		mean := sum / float64(n)
		varr := sum2/float64(n) - mean*mean
		if math.Abs(mean-lambda) > 0.1*lambda+0.3 {
			t.Errorf("lambda=%v: mean=%v", lambda, mean)
		}
		if math.Abs(varr-lambda) > 0.2*lambda+0.5 {
			t.Errorf("lambda=%v: var=%v", lambda, varr)
		}
	}
	if poisson(rng, 0) != 0 || poisson(rng, -1) != 0 {
		t.Error("nonpositive lambda must give 0")
	}
}

func TestFrameSizeBounds(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 4))
	for i := 0; i < 10000; i++ {
		s := frameSize(rng, 1480, 300)
		if s < 60 || s > 1514 {
			t.Fatalf("frame size %d out of [60,1514]", s)
		}
	}
}

func TestRandomPublicIP(t *testing.T) {
	rng := rand.New(rand.NewPCG(5, 6))
	for i := 0; i < 10000; i++ {
		ip := randomPublicIPFrom(rng)
		b := ip.As4()
		if b[0] == 10 || b[0] == 127 || b[0] == 0 || b[0] >= 224 ||
			(b[0] == 192 && b[1] == 168) || (b[0] == 172 && b[1]&0xf0 == 16) {
			t.Fatalf("non-public IP generated: %v", ip)
		}
	}
}

func BenchmarkGenerateMinute(b *testing.B) {
	g := NewGenerator(ProfileUS1())
	var buf []Flow
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = g.GenerateMinute(int64(1000+i), buf[:0])
	}
}
