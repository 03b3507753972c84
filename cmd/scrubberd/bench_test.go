package main

import (
	"net/netip"
	"strings"
	"testing"

	"github.com/ixp-scrubber/ixpscrubber/internal/balance"
	"github.com/ixp-scrubber/ixpscrubber/internal/bgp"
	"github.com/ixp-scrubber/ixpscrubber/internal/netflow"
	"github.com/ixp-scrubber/ixpscrubber/internal/obs"
	"github.com/ixp-scrubber/ixpscrubber/internal/packet"
	"github.com/ixp-scrubber/ixpscrubber/internal/sflow"
	"github.com/ixp-scrubber/ixpscrubber/internal/synth"
)

// benchDatagrams encodes a few minutes of synthetic member traffic as
// sFlow datagrams (16 samples each, like the e2e replay) and returns them
// together with a blackhole registry covering the generator's victims.
func benchDatagrams(tb testing.TB) ([][]byte, *bgp.Registry) {
	tb.Helper()
	p := synth.ProfileUS2()
	p.BenignFlowsPerMin = 400
	p.EpisodeRatePerMin = 0.8
	p.Seed = 0xBE
	g := synth.NewGenerator(p)
	registry := bgp.NewRegistry()
	var builder packet.Builder
	var dgs [][]byte
	var seq uint32
	var samples []sflow.FlowSample
	flush := func() {
		if len(samples) == 0 {
			return
		}
		d := &sflow.Datagram{
			AgentAddress: netip.MustParseAddr("192.0.2.10"),
			Sequence:     seq,
			Samples:      samples,
		}
		buf, err := sflow.Append(nil, d)
		if err != nil {
			tb.Fatal(err)
		}
		dgs = append(dgs, buf)
		samples = nil
	}
	for m := int64(0); m < 3; m++ {
		flows := g.GenerateMinute(m, nil)
		for _, ev := range g.Events() {
			if ev.Announce {
				registry.Announce(ev.Prefix, 0)
			}
		}
		for i := range flows {
			seq++
			s, err := synth.SampleFor(&flows[i], seq, &builder)
			if err != nil {
				tb.Fatal(err)
			}
			s.Header = append([]byte(nil), s.Header...)
			samples = append(samples, s)
			if len(samples) == 16 {
				flush()
			}
		}
		flush()
	}
	return dgs, registry
}

// benchIngest drives the daemon's hot path — sFlow decode, registry
// labeling, balancer binning — over pre-encoded datagrams, with or without
// the observability registry attached. The instrumented variant also pays
// for a scrape every 4096 datagrams (Prometheus polls every 15 s; this is
// orders of magnitude more often), so the measured delta is an upper bound
// on the real overhead.
func benchIngest(b *testing.B, metrics bool) {
	dgs, registry := benchDatagrams(b)
	bal := balance.ForRecords(0xBEEF, func(netflow.Record) {})
	var handled int
	collector := &sflow.Collector{
		Label:     registry.Covered,
		EmitBatch: bal.AddBatch,
		// Advance one synthetic minute every ~40 datagrams so the balancer
		// flushes bins at a realistic cadence instead of buffering the
		// whole run in one bin.
		Clock: func() int64 { return int64(60 + handled/40*60) },
	}
	var reg *obs.Registry
	var balMetrics *balance.Metrics
	if metrics {
		reg = obs.NewRegistry()
		obs.RegisterRuntimeMetrics(reg)
		collector.RegisterMetrics(reg)
		balMetrics = balance.RegisterMetrics(reg)
	}
	var scrape strings.Builder
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		collector.HandleDatagram(dgs[i%len(dgs)])
		handled++
		if reg != nil && handled%4096 == 0 {
			balMetrics.Publish(&bal.Stats)
			scrape.Reset()
			if err := reg.WritePrometheus(&scrape); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.StopTimer()
	if collector.Stats.Records.Load() == 0 {
		b.Fatal("ingest decoded no records")
	}
}

func BenchmarkIngestMetricsOff(b *testing.B) { benchIngest(b, false) }
func BenchmarkIngestMetricsOn(b *testing.B)  { benchIngest(b, true) }
