package main

import (
	"fmt"
	"net/netip"
	"unsafe"

	"github.com/ixp-scrubber/ixpscrubber/internal/netflow"
	"github.com/ixp-scrubber/ixpscrubber/internal/packet"
	"github.com/ixp-scrubber/ixpscrubber/internal/sflow"
	"github.com/ixp-scrubber/ixpscrubber/internal/synth"
)

// samplesPerDatagram matches ixpsim.Run: one switch export carries 16 flow
// samples.
const samplesPerDatagram = 16

const (
	truthSize  = int(unsafe.Sizeof(truth{}))
	recordSize = int(unsafe.Sizeof(netflow.Record{}))
)

// startMin anchors simulated time (2021-01-01 UTC in unix minutes), the
// epoch the chaos and cluster harnesses use.
const startMin = 26_830_080

var agentAddr = netip.MustParseAddr("192.0.2.10")

// truth is the pointer-free ground truth of one sample: what the collector
// will decode from it, plus whether the generator meant it as attack
// traffic. Kept compact (and free of netip.Addr's interned pointer) so the
// garbage collector does not scan it during timed regions.
type truth struct {
	src, dst         [4]byte
	srcPort, dstPort uint16
	frameLen         uint32
	proto, flags     uint8
	fragment, attack bool
}

// record rebuilds the netflow.Record the collector produces for the sample
// (timestamp and label aside — the drop program matches on neither).
func (t *truth) record(rate uint32) netflow.Record {
	return netflow.Record{
		SrcIP:        netip.AddrFrom4(t.src),
		DstIP:        netip.AddrFrom4(t.dst),
		SrcPort:      t.srcPort,
		DstPort:      t.dstPort,
		Protocol:     t.proto,
		TCPFlags:     t.flags,
		Fragment:     t.fragment,
		Packets:      uint64(rate),
		Bytes:        uint64(rate) * uint64(t.frameLen),
		SamplingRate: rate,
	}
}

// minuteScript is one simulated minute of input: wire-format datagrams,
// the blackhole events to apply before them, and per-sample ground truth.
type minuteScript struct {
	datagrams [][]byte
	events    []synth.BlackholeEvent
	truth     []truth
}

// script is the whole generated input of a single-site workload.
type script struct {
	profile synth.Profile
	// prefill is the history fed through Pipeline.Feed in set-up, one slice
	// per simulated minute, ending the minute before minutes[0].
	prefill       [][]netflow.Record
	prefillEvents [][]synth.BlackholeEvent
	// prefillVictims are the addresses attacked during the history (and
	// the last minute each was): their onset precedes the timed region.
	prefillVictims map[[4]byte]int64
	minutes        []minuteScript
	samples        int
	// heapBytes is what the script itself keeps live to the end of the run
	// (datagram arenas, slice headers, ground truth); the system's own live
	// heap is measured net of it.
	heapBytes int
	// historyBytes is the size of prefill, live only while it is retained.
	historyBytes int

	generateSec, encodeSec float64
}

// shaper pins the attack side of the generated traffic to nominal counts:
// at most victims concurrently attacked addresses, each drawing exactly
// perMinute attack samples a minute (plus its share of benign traffic). The
// generator's episode process is Poisson — the number of victims, and with
// it window size, rule count and drop-program size, would swing by tens of
// percent from seed to seed and every timing with it. Shaped, the seed
// still decides who is attacked, with which vectors, from where and when;
// how much is fixed by the script.
type shaper struct {
	victims, perMinute, benignPerMinute int

	admitted map[netip.Addr]bool // current episodes: admitted or rejected
	decided  map[netip.Addr]bool // last decision per address, for late BGP events
	seen     map[netip.Addr]int  // attack samples this minute
	kept     map[netip.Addr]int
	keptB    map[netip.Addr]int
	order    []netip.Addr
	n        int // admitted episodes
}

func newShaper(victims, perMinute int, benignRatio float64) *shaper {
	return &shaper{
		victims: victims, perMinute: perMinute,
		benignPerMinute: int(float64(perMinute)*benignRatio + 0.5),
		admitted:        map[netip.Addr]bool{},
		decided:         map[netip.Addr]bool{},
		seen:            map[netip.Addr]int{},
		kept:            map[netip.Addr]int{},
		keptB:           map[netip.Addr]int{},
	}
}

// minute filters one generated minute in place and returns what is left of
// the flows and of the blackhole events.
func (s *shaper) minute(flows []synth.Flow, events []synth.BlackholeEvent) ([]synth.Flow, []synth.BlackholeEvent) {
	clear(s.seen)
	clear(s.kept)
	clear(s.keptB)
	s.order = s.order[:0]
	for i := range flows {
		if flows[i].Attack {
			if s.seen[flows[i].DstIP] == 0 {
				s.order = append(s.order, flows[i].DstIP)
			}
			s.seen[flows[i].DstIP]++
		}
	}
	// An episode that drew no attack sample this minute is over.
	for a, ok := range s.admitted {
		if s.seen[a] == 0 {
			if ok {
				s.n--
			}
			delete(s.admitted, a)
		}
	}
	// New episodes, in order of appearance: admitted while there is room
	// and the episode is strong enough to fill its quota.
	for _, a := range s.order {
		if _, known := s.admitted[a]; known {
			continue
		}
		ok := s.n < s.victims && s.seen[a] >= s.perMinute
		if ok {
			s.n++
		}
		s.admitted[a], s.decided[a] = ok, ok
	}
	out := flows[:0]
	for i := range flows {
		f := &flows[i]
		ok, episode := s.admitted[f.DstIP]
		switch {
		case !episode:
		case !ok:
			continue
		case f.Attack:
			if s.kept[f.DstIP] >= s.perMinute {
				continue
			}
			s.kept[f.DstIP]++
		default:
			if s.keptB[f.DstIP] >= s.benignPerMinute {
				continue
			}
			s.keptB[f.DstIP]++
		}
		out = append(out, *f)
	}
	evs := events[:0]
	for _, ev := range events {
		if s.decided[ev.Prefix.Addr()] {
			evs = append(evs, ev)
		}
	}
	return out, evs
}

// buildScript generates prefillMin minutes of history followed by scriptMin
// minutes of datagrams from one generator, so episodes running at the end
// of the history continue into the script. keepEvery thins the history (a
// deterministic 1-in-N pick) to size the pre-filled window.
func buildScript(p synth.Profile, sh *shaper, prefillMin, scriptMin int, keepEvery int) (*script, error) {
	sc := &script{profile: p, prefillVictims: map[[4]byte]int64{}}
	gen := synth.NewGenerator(p)
	var flows []synth.Flow
	var builder packet.Builder
	conv := &sflow.Collector{}

	t0 := nowSec()
	first := int64(startMin - prefillMin)
	for m := first; m < startMin; m++ {
		flows = gen.GenerateMinute(m, flows[:0])
		flows, events := sh.minute(flows, gen.Events())
		recs := make([]netflow.Record, 0, len(flows)/keepEvery+1)
		for i := range flows {
			if flows[i].Attack {
				sc.prefillVictims[flows[i].DstIP.As4()] = m
			}
			if i%keepEvery == 0 {
				recs = append(recs, flows[i].Record)
			}
		}
		sc.prefill = append(sc.prefill, recs)
		sc.historyBytes += cap(recs) * recordSize
		sc.prefillEvents = append(sc.prefillEvents, events)
	}
	sc.generateSec += nowSec() - t0

	var seq, exportSeq uint32
	samples := make([]sflow.FlowSample, 0, samplesPerDatagram)
	arena := make([]byte, 0, samplesPerDatagram*synth.MaxSampledHeader)
	for k := 0; k < scriptMin; k++ {
		t0 = nowSec()
		flows = gen.GenerateMinute(startMin+int64(k), flows[:0])
		flows, events := sh.minute(flows, gen.Events())
		ms := minuteScript{events: events, truth: make([]truth, len(flows))}
		sc.generateSec += nowSec() - t0

		t0 = nowSec()
		// One backing array per minute: the datagrams are replayed in
		// order, so the working set streams through the caches.
		store := make([]byte, 0, len(flows)*200)
		var offsets []int
		flush := func() error {
			exportSeq++
			d := sflow.Datagram{AgentAddress: agentAddr, Sequence: exportSeq, Uptime: exportSeq * 1000, Samples: samples}
			start := len(store)
			var err error
			if store, err = sflow.Append(store, &d); err != nil {
				return err
			}
			offsets = append(offsets, start)
			samples = samples[:0]
			arena = arena[:0]
			return nil
		}
		for i := range flows {
			f := &flows[i]
			frame, err := synth.FrameFor(f, &builder)
			if err != nil {
				return nil, err
			}
			at := len(arena)
			arena = append(arena, frame...)
			seq++
			s := sflow.FlowSample{
				Sequence:     seq,
				SourceID:     1,
				SamplingRate: f.SamplingRate,
				SamplePool:   seq * f.SamplingRate,
				FrameLength:  uint32(f.Bytes / f.Packets),
				Header:       arena[at:len(arena):len(arena)],
			}
			// Ground truth is what the production converter decodes from
			// this very sample, so the shadow drop accounting sees the
			// records the dropper sees.
			var rec netflow.Record
			if !conv.SampleToRecord(&s, 0, &rec) {
				return nil, fmt.Errorf("bench: generated sample %d does not decode", seq)
			}
			ms.truth[i] = truth{
				src: rec.SrcIP.As4(), dst: rec.DstIP.As4(),
				srcPort: rec.SrcPort, dstPort: rec.DstPort,
				frameLen: s.FrameLength, proto: rec.Protocol, flags: rec.TCPFlags,
				fragment: rec.Fragment, attack: f.Attack,
			}
			samples = append(samples, s)
			if len(samples) == samplesPerDatagram {
				if err := flush(); err != nil {
					return nil, err
				}
			}
		}
		if len(samples) > 0 {
			if err := flush(); err != nil {
				return nil, err
			}
		}
		offsets = append(offsets, len(store))
		ms.datagrams = make([][]byte, len(offsets)-1)
		for i := range ms.datagrams {
			ms.datagrams[i] = store[offsets[i]:offsets[i+1]:offsets[i+1]]
		}
		sc.heapBytes += cap(store) + cap(ms.truth)*truthSize + cap(ms.datagrams)*24
		sc.samples += len(flows)
		sc.minutes = append(sc.minutes, ms)
		sc.encodeSec += nowSec() - t0
	}
	return sc, nil
}
