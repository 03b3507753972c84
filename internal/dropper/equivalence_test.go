package dropper_test

import (
	"fmt"
	"math"
	"math/rand"
	"net/netip"
	"slices"
	"testing"

	"github.com/ixp-scrubber/ixpscrubber/internal/acl"
	"github.com/ixp-scrubber/ixpscrubber/internal/dropper"
	"github.com/ixp-scrubber/ixpscrubber/internal/netflow"
	"github.com/ixp-scrubber/ixpscrubber/internal/tagging"
)

// The equivalence wall: for random rule sets and random (match-biased)
// records, the compiled program must agree with the naive reference
// interpreter on every record — same first-match index, bit for bit —
// across seeds × {1, 16, 256, 4096} rules. The generators deliberately
// cover the nasty discretization corners: unretained literal ports (dead
// conditions), PortOther classes, fragment/port contradictions, size bin
// 15's open top end, out-of-range protocol and bin values, v4 vs
// 4-mapped-in-6 vs v6 prefixes, /0 wildcard-width prefixes, and invalid
// record addresses.

// retained is a small palette of retained literal ports.
var retained = []uint16{0, 19, 53, 123, 389, 443, 1023, 1194, 1900, 11211, 27015}

// protoPalette keeps protocol diversity realistic (a handful of IP
// protocols) so per-protocol prefilter construction stays cheap while the
// wildcard and unmatchable (>255) cases still appear.
var protoPalette = []uint32{1, 6, 17, 47, 50, 132, 255}

func genPrefix(rng *rand.Rand) netip.Prefix {
	switch rng.Intn(10) {
	case 0: // v6
		a := netip.AddrFrom16([16]byte{0x20, 0x01, 0x0d, 0xb8, byte(rng.Intn(4)), byte(rng.Intn(4)), 0, 0, 0, 0, 0, 0, 0, 0, 0, byte(rng.Intn(256))})
		return netip.PrefixFrom(a, rng.Intn(129))
	case 1: // 4-mapped-in-6: contains only 4-in-6 record addresses
		v4 := netip.AddrFrom4([4]byte{10, byte(rng.Intn(4)), byte(rng.Intn(4)), byte(rng.Intn(256))})
		a := netip.AddrFrom16(v4.As16())
		return netip.PrefixFrom(a, 96+rng.Intn(33))
	default: // v4 in a small space so prefixes collide and nest
		a := netip.AddrFrom4([4]byte{10, byte(rng.Intn(4)), byte(rng.Intn(4)), byte(rng.Intn(256))})
		return netip.PrefixFrom(a, rng.Intn(33))
	}
}

func genPortCond(rng *rand.Rand) uint32 {
	switch rng.Intn(6) {
	case 0:
		return tagging.PortOther
	case 1: // unretained literal: a condition no discretized record meets
		return uint32(2000 + rng.Intn(5000))
	default:
		return uint32(retained[rng.Intn(len(retained))])
	}
}

func genRule(rng *rand.Rand, i int) dropper.Rule {
	r := dropper.Rule{ID: fmt.Sprintf("r%d", i), Action: acl.ActionDrop}
	if rng.Intn(10) == 0 {
		r.Action = acl.ActionMonitor
	}
	if rng.Intn(10) < 7 {
		r.ProtoSet = true
		if rng.Intn(20) == 0 {
			r.Proto = 256 + uint32(rng.Intn(1<<16)) // never matches a uint8
		} else {
			r.Proto = protoPalette[rng.Intn(len(protoPalette))]
		}
	}
	if rng.Intn(10) < 4 {
		r.SrcPortSet, r.SrcPort = true, genPortCond(rng)
	}
	if rng.Intn(10) < 4 {
		r.DstPortSet, r.DstPort = true, genPortCond(rng)
	}
	if rng.Intn(10) < 4 {
		r.SizeBinSet = true
		r.SizeBin = uint32(rng.Intn(16))
		if rng.Intn(20) == 0 {
			r.SizeBin = 16 + uint32(rng.Intn(100)) // out of range, never matches
		}
	}
	if rng.Intn(10) < 2 {
		r.Fragment = true // may contradict the port conditions above
	}
	if rng.Intn(10) < 6 {
		r.Dst = genPrefix(rng)
	}
	if rng.Intn(10) < 3 {
		r.Src = genPrefix(rng)
	}
	if rng.Intn(50) == 0 {
		r.Dead = true
	}
	return r
}

func genRules(rng *rand.Rand, n int) []dropper.Rule {
	out := make([]dropper.Rule, n)
	for i := range out {
		out[i] = genRule(rng, i)
	}
	return out
}

func randomAddr(rng *rand.Rand) netip.Addr {
	switch rng.Intn(12) {
	case 0: // invalid: contained in no prefix
		return netip.Addr{}
	case 1: // zoned: netip treats it as contained in no prefix
		return netip.AddrFrom16([16]byte{0xfe, 0x80, 15: byte(rng.Intn(256))}).WithZone("eth0")
	case 2, 3: // v6
		return netip.AddrFrom16([16]byte{0x20, 0x01, 0x0d, 0xb8, byte(rng.Intn(4)), byte(rng.Intn(4)), 15: byte(rng.Intn(256))})
	case 4: // 4-in-6
		v4 := netip.AddrFrom4([4]byte{10, byte(rng.Intn(4)), byte(rng.Intn(4)), byte(rng.Intn(256))})
		return netip.AddrFrom16(v4.As16())
	default:
		return netip.AddrFrom4([4]byte{10, byte(rng.Intn(4)), byte(rng.Intn(4)), byte(rng.Intn(256))})
	}
}

func randomPort(rng *rand.Rand) uint16 {
	if rng.Intn(2) == 0 {
		return retained[rng.Intn(len(retained))]
	}
	return uint16(rng.Intn(65536))
}

func randomRecord(rng *rand.Rand) netflow.Record {
	rec := netflow.Record{
		SrcIP:    randomAddr(rng),
		DstIP:    randomAddr(rng),
		SrcPort:  randomPort(rng),
		DstPort:  randomPort(rng),
		Protocol: uint8(protoPalette[rng.Intn(len(protoPalette))]),
		Fragment: rng.Intn(8) == 0,
		Packets:  uint64(rng.Intn(3)), // 0 packets → mean size 0
		Bytes:    uint64(rng.Intn(4000)),
	}
	if rng.Intn(8) == 0 {
		rec.Protocol = uint8(rng.Intn(256))
	}
	return rec
}

// addrIn picks an address inside the prefix by randomizing host bits.
func addrIn(rng *rand.Rand, p netip.Prefix) netip.Addr {
	if p.Addr().Is4() {
		a := p.Addr().As4()
		for bit := p.Bits(); bit < 32; bit++ {
			if rng.Intn(2) == 0 {
				a[bit/8] ^= 1 << (7 - bit%8)
			}
		}
		return netip.AddrFrom4(a)
	}
	a := p.Addr().As16()
	for bit := p.Bits(); bit < 128; bit++ {
		if rng.Intn(2) == 0 {
			a[bit/8] ^= 1 << (7 - bit%8)
		}
	}
	return netip.AddrFrom16(a)
}

// recordForRule biases a random record toward satisfying the rule so hits
// (and first-match priority among several candidate rules) get exercised,
// not just misses.
func recordForRule(rng *rand.Rand, r *dropper.Rule) netflow.Record {
	rec := randomRecord(rng)
	if r.ProtoSet && r.Proto <= 255 {
		rec.Protocol = uint8(r.Proto)
	}
	if r.SrcPortSet {
		if r.SrcPort == tagging.PortOther {
			rec.SrcPort = uint16(2000 + rng.Intn(60000))
		} else if r.SrcPort <= 65535 {
			rec.SrcPort = uint16(r.SrcPort)
		}
	}
	if r.DstPortSet {
		if r.DstPort == tagging.PortOther {
			rec.DstPort = uint16(2000 + rng.Intn(60000))
		} else if r.DstPort <= 65535 {
			rec.DstPort = uint16(r.DstPort)
		}
	}
	if r.SizeBinSet && r.SizeBin <= 15 {
		rec.Packets = 1
		rec.Bytes = uint64(r.SizeBin*tagging.SizeBinWidth) + uint64(rng.Intn(tagging.SizeBinWidth))
		if r.SizeBin == 15 && rng.Intn(2) == 0 {
			rec.Bytes = uint64(1500 + rng.Intn(100000)) // the open top end
		}
	}
	rec.Fragment = r.Fragment
	if r.Dst.IsValid() {
		rec.DstIP = addrIn(rng, r.Dst)
	}
	if r.Src.IsValid() {
		rec.SrcIP = addrIn(rng, r.Src)
	}
	return rec
}

func genRecords(rng *rand.Rand, rules []dropper.Rule, n int) []netflow.Record {
	out := make([]netflow.Record, n)
	for i := range out {
		if len(rules) > 0 && rng.Intn(2) == 0 {
			out[i] = recordForRule(rng, &rules[rng.Intn(len(rules))])
		} else {
			out[i] = randomRecord(rng)
		}
	}
	return out
}

func TestCompiledMatchesInterpreter(t *testing.T) {
	for _, n := range []int{1, 16, 256, 4096} {
		records := 4000
		if n == 4096 {
			records = 800 // the interpreter side is O(rules) per record
		}
		for seed := int64(1); seed <= 3; seed++ {
			t.Run(fmt.Sprintf("rules=%d/seed=%d", n, seed), func(t *testing.T) {
				rng := rand.New(rand.NewSource(seed*7919 + int64(n)))
				rules := genRules(rng, n)
				prog := dropper.Compile(rules)
				interp := dropper.NewInterpreter(rules)
				for k := 0; k < records; k++ {
					rec := genRecords(rng, rules, 1)[0]
					want := interp.Match(&rec)
					got := prog.Match(&rec)
					if got != want {
						t.Fatalf("record %d diverged: compiled=%d interpreter=%d\nrecord: %+v",
							k, got, want, rec)
					}
				}
			})
		}
	}
}

// TestCompileACLEquivalence pins the full verdict path: curated tagging
// rules scoped to classified targets via acl.ForTargets, lowered with
// FromEntries, must reproduce entryIndex — the entry-level first-match
// reference the ACL text is rendered from — on every record.
func TestCompileACLEquivalence(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		rng := rand.New(rand.NewSource(seed * 104729))

		// Mined-style antecedents: discretize real records and keep
		// random non-empty item subsets, so every antecedent is a
		// satisfiable conjunction like the miner produces.
		var taggingRules []tagging.Rule
		for i := 0; i < 12; i++ {
			rec := randomRecord(rng)
			items := tagging.ClassOf(&rec).Items(nil)
			keep := items[:0:0]
			for _, it := range items {
				if rng.Intn(3) > 0 {
					keep = append(keep, it)
				}
			}
			if len(keep) == 0 {
				continue
			}
			taggingRules = append(taggingRules, tagging.Rule{
				ID:         fmt.Sprintf("tr%d", i),
				Antecedent: keep,
				Status:     tagging.StatusAccept,
			})
		}
		var targets []netip.Addr
		for i := 0; i < 6; i++ {
			targets = append(targets, randomAddr(rng))
		}
		entries := acl.ForTargets(taggingRules, targets, acl.ActionDrop)
		if len(entries) == 0 {
			t.Fatalf("seed %d produced no entries", seed)
		}

		prog := dropper.Compile(dropper.FromEntries(entries))
		interp := dropper.NewInterpreter(dropper.FromEntries(entries))
		for k := 0; k < 3000; k++ {
			rec := randomRecord(rng)
			if rng.Intn(2) == 0 { // bias records onto the targets
				rec.DstIP = targets[rng.Intn(len(targets))]
			}
			wantIdx, wantAct := entryIndex(entries, &rec)
			if got := prog.Match(&rec); got != wantIdx {
				t.Fatalf("seed %d record %d: compiled=%d filter=%d (%+v)", seed, k, got, wantIdx, rec)
			}
			if got := interp.Match(&rec); got != wantIdx {
				t.Fatalf("seed %d record %d: interpreter=%d filter=%d (%+v)", seed, k, got, wantIdx, rec)
			}
			if wantIdx >= 0 && prog.Action(wantIdx) != wantAct {
				t.Fatalf("seed %d record %d: action %q != %q", seed, k, prog.Action(wantIdx), wantAct)
			}
		}
	}
}

// TestOversizeMeanPacketSize: a mean packet size beyond uint32 (crafted
// IPFIX octet/packet counts, a replayed netflow file) lands in the open top
// bin 15 on both paths, never wrapped into a small-packet bin.
func TestOversizeMeanPacketSize(t *testing.T) {
	var rules []dropper.Rule
	for _, bin := range []uint32{0, 1, 15} {
		rules = append(rules, dropper.Rule{ID: fmt.Sprintf("bin%d", bin), Action: acl.ActionDrop,
			SizeBin: bin, SizeBinSet: true})
	}
	prog := dropper.Compile(rules)
	interp := dropper.NewInterpreter(rules)
	for _, c := range []struct{ bytes, packets uint64 }{
		{1<<32 - 1, 1}, {1<<32 + 100, 1}, {1 << 33, 1}, {math.MaxUint64, 1},
	} {
		rec := netflow.Record{Protocol: 17, Bytes: c.bytes, Packets: c.packets}
		want := interp.Match(&rec)
		if got := prog.Match(&rec); got != want {
			t.Errorf("mean %d B: compiled=%d interpreter=%d", c.bytes/c.packets, got, want)
		}
		if want != 2 {
			t.Errorf("mean %d B matched rule %d, want the bin-15 rule", c.bytes/c.packets, want)
		}
	}
}

// TestMatchZeroAllocs is the allocation gate on the match path: Match and
// the full Stage.EmitBatch hop must run allocation-free at steady state.
func TestMatchZeroAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	rules := genRules(rng, 256)
	prog := dropper.Compile(rules)
	recs := genRecords(rng, rules, 512)

	sink := 0
	if avg := testing.AllocsPerRun(100, func() {
		for i := range recs {
			sink += prog.Match(&recs[i])
		}
	}); avg != 0 {
		t.Errorf("Program.Match allocates: %.2f allocs per 512 matches (want 0)", avg)
	}

	stage := dropper.NewStage(func([]netflow.Record) {})
	stage.Swap(prog)
	batch := make([]netflow.Record, 64)
	if avg := testing.AllocsPerRun(100, func() {
		copy(batch, recs[:64])
		stage.EmitBatch(batch)
	}); avg != 0 {
		t.Errorf("Stage.EmitBatch allocates: %.2f allocs/batch (want 0)", avg)
	}
	_ = sink
}

// entryIndex is the ACL-entry first-match reference: an entry applies when
// its target (if any) contains the destination and every antecedent item is
// among the record's discretised items.
func entryIndex(entries []acl.Entry, rec *netflow.Record) (int, acl.Action) {
	items := tagging.ClassOf(rec).Items(nil)
	for i := range entries {
		e := &entries[i]
		if e.Target.IsValid() && !e.Target.Contains(rec.DstIP) {
			continue
		}
		match := true
		for _, it := range e.Rule.Antecedent {
			match = match && slices.Contains(items, it)
		}
		if match {
			return i, e.Action
		}
	}
	return -1, ""
}
