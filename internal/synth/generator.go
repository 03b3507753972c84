package synth

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand/v2"
	"net/netip"
	"sort"

	"github.com/ixp-scrubber/ixpscrubber/internal/netflow"
	"github.com/ixp-scrubber/ixpscrubber/internal/packet"
)

// Flow is one generated sampled flow: the wire-visible Record plus ground
// truth the experiments need but the pipeline never sees (which vector the
// flow belongs to and whether it is attack traffic).
type Flow struct {
	netflow.Record
	// Vector names the attack vector ("" for benign traffic).
	Vector string
	// Attack is ground truth: true for DDoS flows, independent of whether
	// the victim's member blackholed the target.
	Attack bool
}

// BlackholeEvent is an announce or withdraw of a blackholed victim prefix,
// emitted so callers can drive a live BGP session or a bgp.Registry.
type BlackholeEvent struct {
	Prefix   netip.Prefix
	At       int64 // unix seconds
	Announce bool  // false = withdraw
	MemberAS uint16
}

// episode is one ongoing attack against a victim IP.
type episode struct {
	victim      netip.Addr
	victimMAC   [6]byte
	memberAS    uint16
	vectors     []Vector // 1-3 vectors blended
	flowsPerMin float64
	endMin      int64
	// blackholeFrom/Until bound the label window; blackholeFrom = -1 when
	// the member does not blackhole.
	blackholeFrom  int64 // unix seconds
	blackholeUntil int64
	announced      bool
}

// Generator produces the traffic of one vantage point minute by minute.
// It is deterministic for a given Profile and sequence of minutes. Not safe
// for concurrent use.
type Generator struct {
	p         Profile
	rng       *rand.Rand
	members   []Member
	targets   []netip.Addr // benign destination pool
	targetCum []float64    // cumulative Zipf popularity over targets
	sources   []netip.Addr // benign source pool
	refl      map[string][]netip.Addr
	owner     map[netip.Prefix][6]byte // member /24 -> MAC, for O(1) egress lookup
	vectors   []Vector                 // active catalog subset per weights
	weights   []float64                // cumulative weights aligned with vectors
	episodes  []*episode
	events    []BlackholeEvent
	curMin    int64
}

// NewGenerator builds a deterministic generator for the profile.
func NewGenerator(p Profile) *Generator {
	if p.VectorWeights == nil {
		p.VectorWeights = DefaultVectorWeights
	}
	if p.SamplingRate == 0 {
		p.SamplingRate = 2048
	}
	g := &Generator{
		p:    p,
		rng:  rand.New(rand.NewPCG(p.Seed, p.Seed^0x9E3779B97F4A7C15)),
		refl: make(map[string][]netip.Addr),
	}
	g.buildMembers()
	g.buildPools()
	g.buildVectorTable()
	return g
}

// Members returns the simulated member networks.
func (g *Generator) Members() []Member { return g.members }

func (g *Generator) buildMembers() {
	g.members = make([]Member, g.p.Members)
	for i := range g.members {
		var mac [6]byte
		mac[0] = 0x02 // locally administered
		binary.BigEndian.PutUint32(mac[2:6], uint32(g.p.Seed)<<12|uint32(i))
		// Allocate each member a /24 out of a per-IXP /8-ish region derived
		// from the seed so member spaces never collide within one IXP.
		base := [4]byte{byte(60 + g.p.Seed%90), byte(i >> 8), byte(i), 0}
		g.members[i] = Member{
			ASN:             uint16(64500 + i%1000),
			MAC:             mac,
			Prefix:          netip.PrefixFrom(netip.AddrFrom4(base), 24),
			UsesBlackholing: g.rng.Float64() < g.p.BlackholeProb,
		}
	}
	g.owner = make(map[netip.Prefix][6]byte, len(g.members))
	for i := range g.members {
		g.owner[g.members[i].Prefix] = g.members[i].MAC
	}
}

func (g *Generator) buildPools() {
	g.targets = make([]netip.Addr, g.p.TargetIPs)
	g.targetCum = make([]float64, g.p.TargetIPs)
	var cum float64
	for i := range g.targets {
		m := g.members[g.rng.IntN(len(g.members))]
		a := m.Prefix.Addr().As4()
		a[3] = byte(1 + g.rng.IntN(254))
		g.targets[i] = netip.AddrFrom4(a)
		// Zipf(1) popularity: destination traffic concentrates on heavy
		// hitters (CDN caches, resolvers), matching real IXP fan-in. This
		// heavy tail is what gives the balancer benign IPs busy enough to
		// pair with attack victims.
		cum += 1.0 / float64(i+1)
		g.targetCum[i] = cum
	}
	g.sources = make([]netip.Addr, g.p.BenignSrcIPs)
	for i := range g.sources {
		g.sources[i] = g.randomPublicIP()
	}
	// Reflector pools: seeded per (IXP seed, vector name) so pools at
	// different vantage points are nearly disjoint.
	for _, v := range AllVectors {
		h := g.p.Seed
		for _, c := range []byte(v.Name) {
			h = h*1099511628211 + uint64(c)
		}
		rr := rand.New(rand.NewPCG(h, h^0xBF58476D1CE4E5B9))
		pool := make([]netip.Addr, g.p.ReflectorsPerVector)
		for i := range pool {
			pool[i] = randomPublicIPFrom(rr)
		}
		g.refl[v.Name] = pool
	}
}

func (g *Generator) buildVectorTable() {
	names := make([]string, 0, len(g.p.VectorWeights))
	for name := range g.p.VectorWeights {
		names = append(names, name)
	}
	sort.Strings(names)
	var cum float64
	for _, name := range names {
		v, ok := vectorByName(name)
		if !ok {
			continue
		}
		cum += g.p.VectorWeights[name]
		g.vectors = append(g.vectors, v)
		g.weights = append(g.weights, cum)
	}
}

func vectorByName(name string) (Vector, bool) {
	for _, v := range AllVectors {
		if v.Name == name {
			return v, true
		}
	}
	return Vector{}, false
}

func (g *Generator) randomPublicIP() netip.Addr { return randomPublicIPFrom(g.rng) }

func randomPublicIPFrom(rng *rand.Rand) netip.Addr {
	for {
		v := rng.Uint32()
		b := [4]byte{byte(v >> 24), byte(v >> 16), byte(v >> 8), byte(v)}
		switch {
		case b[0] == 0 || b[0] == 10 || b[0] == 127 || b[0] >= 224:
			continue
		case b[0] == 172 && b[1]&0xf0 == 16:
			continue
		case b[0] == 192 && b[1] == 168:
			continue
		}
		return netip.AddrFrom4(b)
	}
}

// pickVector samples an attack vector active at the given unix time.
func (g *Generator) pickVector(at int64) (Vector, bool) {
	if len(g.vectors) == 0 {
		return Vector{}, false
	}
	for tries := 0; tries < 32; tries++ {
		x := g.rng.Float64() * g.weights[len(g.weights)-1]
		i := sort.SearchFloat64s(g.weights, x)
		if i >= len(g.vectors) {
			i = len(g.vectors) - 1
		}
		v := g.vectors[i]
		if start, ok := g.p.VectorStart[v.Name]; ok && at < start {
			continue // vector has not emerged yet at this vantage point
		}
		return v, true
	}
	return Vector{}, false
}

// poisson samples a Poisson variate (Knuth for small lambda, normal
// approximation above 64).
func poisson(rng *rand.Rand, lambda float64) int {
	if lambda <= 0 {
		return 0
	}
	if lambda > 64 {
		n := lambda + math.Sqrt(lambda)*rng.NormFloat64()
		if n < 0 {
			return 0
		}
		return int(n + 0.5)
	}
	l := math.Exp(-lambda)
	k, p := 0, 1.0
	for {
		p *= rng.Float64()
		if p <= l {
			return k
		}
		k++
	}
}

// frameSize samples a truncated-normal frame size.
func frameSize(rng *rand.Rand, mean, std float64) uint32 {
	s := mean + std*rng.NormFloat64()
	if s < 60 {
		s = 60
	}
	if s > 1514 {
		s = 1514
	}
	return uint32(s)
}

// GenerateMinute appends every sampled flow of the given unix minute to dst
// and returns it. Minutes must be generated in non-decreasing order.
func (g *Generator) GenerateMinute(minute int64, dst []Flow) []Flow {
	if minute < g.curMin {
		panic(fmt.Sprintf("synth: minutes must be non-decreasing (got %d after %d)", minute, g.curMin))
	}
	g.curMin = minute
	at := minute * 60

	g.churnReflectors()
	g.spawnEpisodes(minute)
	dst = g.benignFlows(minute, at, dst)
	dst = g.attackFlows(minute, at, dst)
	g.reapEpisodes(minute)
	return dst
}

// churnReflectors replaces a per-minute expected fraction of every
// reflector pool with fresh hosts, driving the temporal drift of §6.3.
func (g *Generator) churnReflectors() {
	if g.p.ReflectorChurnPerDay <= 0 {
		return
	}
	perMin := g.p.ReflectorChurnPerDay / 1440
	// Pools must churn in a fixed order: ranging over the map directly
	// would consume g.rng in a different sequence every process run,
	// making corpora (and everything trained on them) irreproducible.
	for _, v := range AllVectors {
		pool := g.refl[v.Name]
		n := poisson(g.rng, perMin*float64(len(pool)))
		for i := 0; i < n; i++ {
			pool[g.rng.IntN(len(pool))] = g.randomPublicIP()
		}
	}
}

func (g *Generator) spawnEpisodes(minute int64) {
	at := minute * 60
	for i := 0; i < poisson(g.rng, g.p.EpisodeRatePerMin); i++ {
		nv := 1 + g.rng.IntN(3)
		vecs := make([]Vector, 0, nv)
		for j := 0; j < nv; j++ {
			if v, ok := g.pickVector(at); ok {
				vecs = append(vecs, v)
			}
		}
		if len(vecs) == 0 {
			continue
		}
		mi := g.rng.IntN(len(g.members))
		m := g.members[mi]
		a := m.Prefix.Addr().As4()
		a[3] = byte(1 + g.rng.IntN(254))
		victim := netip.AddrFrom4(a)

		dur := 1 + int64(g.rng.ExpFloat64()*g.p.EpisodeDurMeanMin)
		ep := &episode{
			victim:        victim,
			victimMAC:     m.MAC,
			memberAS:      m.ASN,
			vectors:       vecs,
			flowsPerMin:   float64(g.p.AttackFlowsPerMin) * (0.4 + 1.2*g.rng.Float64()),
			endMin:        minute + dur,
			blackholeFrom: -1,
		}
		if m.UsesBlackholing {
			delay := g.rng.ExpFloat64() * g.p.BlackholeDelayMin
			ep.blackholeFrom = at + int64(delay*60)
			ep.blackholeUntil = ep.endMin * 60 // withdrawn when the attack ends
		} else {
			// Members without the blackholing service are predominantly
			// small networks drawing small attacks; their (unlabeled)
			// episodes are proportionally weaker.
			ep.flowsPerMin *= 0.1
		}
		g.episodes = append(g.episodes, ep)
	}
}

func (g *Generator) reapEpisodes(minute int64) {
	kept := g.episodes[:0]
	for _, ep := range g.episodes {
		if minute >= ep.endMin {
			if ep.announced {
				g.events = append(g.events, BlackholeEvent{
					Prefix:   netip.PrefixFrom(ep.victim, 32),
					At:       ep.blackholeUntil,
					Announce: false,
					MemberAS: ep.memberAS,
				})
			}
			continue
		}
		kept = append(kept, ep)
	}
	g.episodes = kept
}

// Events drains the blackhole announce/withdraw events generated so far.
func (g *Generator) Events() []BlackholeEvent {
	ev := g.events
	g.events = nil
	return ev
}

func (g *Generator) benignFlows(minute, at int64, dst []Flow) []Flow {
	n := poisson(g.rng, float64(g.p.BenignFlowsPerMin))
	for i := 0; i < n; i++ {
		dst = append(dst, g.benignFlow(at, g.pickTarget()))
	}
	return dst
}

// pickTarget samples a benign destination by Zipf popularity.
func (g *Generator) pickTarget() netip.Addr {
	x := g.rng.Float64() * g.targetCum[len(g.targetCum)-1]
	i := sort.SearchFloat64s(g.targetCum, x)
	if i >= len(g.targets) {
		i = len(g.targets) - 1
	}
	return g.targets[i]
}

// benignFlow generates one background flow toward the given destination.
func (g *Generator) benignFlow(at int64, dstIP netip.Addr) Flow {
	svc := pickService(g.rng)
	src := g.sources[g.rng.IntN(len(g.sources))]
	size := frameSize(g.rng, svc.SizeMean, svc.SizeStd)

	var srcPort, dstPort uint16
	serverSide := svc.ServerIsSource
	if g.rng.Float64() < 0.2 {
		serverSide = !serverSide // some reverse-direction traffic
	}
	svcPort := svc.Port
	if svcPort == 0 {
		svcPort = uint16(1024 + g.rng.IntN(64000))
	}
	if serverSide {
		srcPort, dstPort = svcPort, uint16(1024+g.rng.IntN(64000))
	} else {
		srcPort, dstPort = uint16(1024+g.rng.IntN(64000)), svcPort
	}

	var flags uint8
	if svc.Protocol == packet.ProtoTCP {
		flags = packet.FlagACK
		if g.rng.Float64() < 0.3 {
			flags |= packet.FlagPSH
		}
	}
	// A small tail of benign traffic is fragmented (large DNS/EDNS replies,
	// VPN payloads); an order of magnitude below the blackhole class.
	fragment := svc.Protocol == packet.ProtoUDP && g.rng.Float64() < 0.002
	if fragment {
		srcPort, dstPort, flags = 0, 0, 0
		size = frameSize(g.rng, 1480, 60)
	}
	rate := g.p.SamplingRate
	return Flow{
		Record: netflow.Record{
			Timestamp:    at + g.rng.Int64N(60),
			SrcIP:        src,
			DstIP:        dstIP,
			SrcPort:      srcPort,
			DstPort:      dstPort,
			Protocol:     uint8(svc.Protocol),
			TCPFlags:     flags,
			Fragment:     fragment,
			SrcMAC:       g.ingressMAC(src),
			DstMAC:       g.memberMACFor(dstIP),
			Packets:      uint64(rate),
			Bytes:        uint64(rate) * uint64(size),
			SamplingRate: rate,
		},
	}
}

func (g *Generator) attackFlows(minute, at int64, dst []Flow) []Flow {
	for _, ep := range g.episodes {
		n := poisson(g.rng, ep.flowsPerMin)
		for i := 0; i < n; i++ {
			v := ep.vectors[g.rng.IntN(len(ep.vectors))]
			dst = append(dst, g.attackFlow(at, ep, v))
		}
		// Benign traffic keeps flowing to the victim during the attack.
		nb := poisson(g.rng, ep.flowsPerMin*g.p.VictimBenignRatio)
		for i := 0; i < nb; i++ {
			f := g.benignFlow(at, ep.victim)
			f.Record.DstMAC = ep.victimMAC
			g.applyBlackholeLabel(&f, ep)
			dst = append(dst, f)
		}
	}
	return dst
}

func (g *Generator) attackFlow(at int64, ep *episode, v Vector) Flow {
	pool := g.refl[v.Name]
	src := pool[g.rng.IntN(len(pool))]
	size := frameSize(g.rng, v.SizeMean, v.SizeStd)

	fragment := g.rng.Float64() < v.FragmentShare
	var srcPort, dstPort uint16
	var flags uint8
	if !fragment && v.Protocol != packet.ProtoGRE {
		srcPort = v.SrcPort
		if srcPort == 0 {
			srcPort = uint16(1024 + g.rng.IntN(64000))
		}
		if v.SprayPorts {
			dstPort = uint16(g.rng.IntN(65536))
		} else {
			dstPort = uint16(1024 + g.rng.IntN(64000))
		}
		if v.Protocol == packet.ProtoTCP {
			flags = packet.FlagSYN | packet.FlagACK // reflected handshake replies
		}
	}
	if fragment {
		size = frameSize(g.rng, 1480, 60) // fragment tails run near MTU
	}
	rate := g.p.SamplingRate
	f := Flow{
		Record: netflow.Record{
			Timestamp:    at + g.rng.Int64N(60),
			SrcIP:        src,
			DstIP:        ep.victim,
			SrcPort:      srcPort,
			DstPort:      dstPort,
			Protocol:     uint8(v.Protocol),
			TCPFlags:     flags,
			Fragment:     fragment,
			SrcMAC:       g.ingressMAC(src),
			DstMAC:       ep.victimMAC,
			Packets:      uint64(rate),
			Bytes:        uint64(rate) * uint64(size),
			SamplingRate: rate,
		},
		Vector: v.Name,
		Attack: true,
	}
	g.applyBlackholeLabel(&f, ep)
	return f
}

// applyBlackholeLabel sets the Blackholed flag when the flow's timestamp
// falls inside the victim's blackhole window, and records the announce
// event the first time the window opens.
func (g *Generator) applyBlackholeLabel(f *Flow, ep *episode) {
	if ep.blackholeFrom < 0 || f.Timestamp < ep.blackholeFrom || f.Timestamp >= ep.blackholeUntil {
		return
	}
	f.Blackholed = true
	if !ep.announced {
		ep.announced = true
		g.events = append(g.events, BlackholeEvent{
			Prefix:   netip.PrefixFrom(ep.victim, 32),
			At:       ep.blackholeFrom,
			Announce: true,
			MemberAS: ep.memberAS,
		})
	}
}

// ingressMAC maps a source IP to the member router it enters through,
// consistently, so per-member traffic concentrations are learnable.
func (g *Generator) ingressMAC(src netip.Addr) [6]byte {
	b := src.As4()
	h := binary.BigEndian.Uint32(b[:])
	h ^= h >> 13
	return g.members[int(h)%len(g.members)].MAC
}

// memberMACFor returns the MAC of the member owning the destination, or a
// hash-consistent member when the IP is outside every member prefix.
func (g *Generator) memberMACFor(dst netip.Addr) [6]byte {
	p, err := dst.Prefix(24)
	if err == nil {
		if mac, ok := g.owner[p]; ok {
			return mac
		}
	}
	return g.ingressMAC(dst)
}

func pickService(rng *rand.Rand) BenignService {
	var total float64
	for _, s := range BenignServices {
		total += s.Weight
	}
	x := rng.Float64() * total
	for _, s := range BenignServices {
		if x < s.Weight {
			return s
		}
		x -= s.Weight
	}
	return BenignServices[0]
}

// Generate produces all flows of a time range [fromMin, toMin) in one slice.
// Intended for tests and small experiments; long ranges should iterate
// GenerateMinute and stream.
func (g *Generator) Generate(fromMin, toMin int64) []Flow {
	var out []Flow
	for m := fromMin; m < toMin; m++ {
		out = g.GenerateMinute(m, out)
	}
	return out
}

// Records strips ground truth, returning only the wire-visible records.
func Records(flows []Flow) []netflow.Record {
	out := make([]netflow.Record, len(flows))
	for i := range flows {
		out[i] = flows[i].Record
	}
	return out
}
