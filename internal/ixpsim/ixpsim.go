// Package ixpsim wires the substrates into a live, wire-protocol-accurate
// IXP simulation: synthetic member switches export real sFlow v5 datagrams
// over UDP to a collector, member routers announce blackholes over real BGP
// sessions to a route server, the collector labels flows against the BGP
// registry, balances them online, and a Scrubber trains and classifies —
// the full Figure 1/2 deployment on loopback interfaces.
package ixpsim

import (
	"context"
	"fmt"
	"log/slog"
	"net"
	"net/netip"
	"sync"

	"github.com/ixp-scrubber/ixpscrubber/internal/balance"
	"github.com/ixp-scrubber/ixpscrubber/internal/bgp"
	"github.com/ixp-scrubber/ixpscrubber/internal/netflow"
	"github.com/ixp-scrubber/ixpscrubber/internal/packet"
	"github.com/ixp-scrubber/ixpscrubber/internal/sflow"
	"github.com/ixp-scrubber/ixpscrubber/internal/synth"
)

// Config parameterizes a simulation run.
type Config struct {
	// Profile drives the traffic generator.
	Profile synth.Profile
	// FromMin/ToMin bound the simulated time range (unix minutes).
	FromMin, ToMin int64
	// BatchSize is the number of flow samples per sFlow datagram.
	BatchSize int
}

// Result carries what the simulation produced.
type Result struct {
	// Balanced is the online-balanced labeled record stream (the ML
	// training set of this vantage point).
	Balanced []netflow.Record
	// BalanceStats accounts the reduction.
	BalanceStats balance.Stats
	// CollectorStats snapshots the sFlow collector counters.
	Datagrams, Samples, Records, Blackholed uint64
	// BlackholesSeen is the number of distinct prefixes the route server's
	// registry recorded.
	BlackholesSeen int
}

// Run executes the simulation: it starts a route server and an sFlow
// collector on loopback, replays the generator's traffic as wire-format
// datagrams and its blackhole events as BGP announcements, and returns the
// balanced dataset the collector side assembled.
//
// Simulated time is decoupled from wall time: each generated minute is
// replayed as fast as the sockets allow, with the collector's clock driven
// by the replay.
func Run(ctx context.Context, cfg Config) (*Result, error) {
	if cfg.BatchSize <= 0 {
		cfg.BatchSize = 16
	}
	log := slog.New(slog.DiscardHandler)

	// Route server.
	rsLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("ixpsim: route server listen: %w", err)
	}
	registry := bgp.NewRegistry()
	var simClock struct {
		mu  sync.Mutex
		now int64
	}
	setClock := func(t int64) {
		simClock.mu.Lock()
		simClock.now = t
		simClock.mu.Unlock()
	}
	getClock := func() int64 {
		simClock.mu.Lock()
		defer simClock.mu.Unlock()
		return simClock.now
	}
	setClock(cfg.FromMin * 60)

	rs := &bgp.RouteServer{
		ASN:      64999,
		RouterID: [4]byte{192, 0, 2, 254},
		Registry: registry,
		Log:      log,
		Clock:    getClock,
	}
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	rsDone := make(chan error, 1)
	go func() { rsDone <- rs.Serve(ctx, rsLn) }()

	// sFlow collector feeding the online balancer.
	pc, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("ixpsim: collector listen: %w", err)
	}
	res := &Result{}
	var balMu sync.Mutex
	bal := balance.ForRecords(cfg.Profile.Seed, func(r netflow.Record) {
		res.Balanced = append(res.Balanced, r)
	})
	collector := &sflow.Collector{
		Label: registry.Covered,
		Clock: getClock,
		Log:   log,
		EmitBatch: func(recs []netflow.Record) {
			balMu.Lock()
			bal.AddBatch(recs)
			balMu.Unlock()
		},
	}
	colDone := make(chan error, 1)
	go func() { colDone <- collector.Listen(ctx, pc) }()

	// Member-side BGP session announcing blackholes.
	member, err := bgp.Dial(ctx, rsLn.Addr().String(), bgp.Open{
		ASN: 64501, HoldTime: 90, RouterID: [4]byte{192, 0, 2, 1},
	})
	if err != nil {
		return nil, fmt.Errorf("ixpsim: member session: %w", err)
	}
	defer member.Close()

	// Member-side sFlow exporter.
	exporter, err := sflow.NewExporter(pc.LocalAddr().String(), netip.MustParseAddr("192.0.2.10"))
	if err != nil {
		return nil, fmt.Errorf("ixpsim: exporter: %w", err)
	}
	defer exporter.Close()

	gen := synth.NewGenerator(cfg.Profile)
	var builder packet.Builder
	var seq uint32
	var buf []synth.Flow
	samples := make([]sflow.FlowSample, 0, cfg.BatchSize)
	// Per-datagram headers alias one builder; keep per-sample copies.
	headerArena := make([]byte, 0, cfg.BatchSize*synth.MaxSampledHeader)

	nextHop := netip.MustParseAddr("192.0.2.1")
	var totalSent uint64

	for m := cfg.FromMin; m < cfg.ToMin; m++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		setClock(m * 60)
		buf = gen.GenerateMinute(m, buf[:0])

		// Announce/withdraw blackholes over the real BGP session first so
		// the registry is current before this minute's samples arrive.
		pending := 0
		for _, ev := range gen.Events() {
			if ev.Announce {
				err = member.AnnounceBlackhole(ev.Prefix, nextHop)
			} else {
				err = member.WithdrawBlackhole(ev.Prefix)
			}
			if err != nil {
				return nil, fmt.Errorf("ixpsim: bgp event: %w", err)
			}
			pending++
		}
		// The route server processes updates asynchronously; round-trip a
		// marker so the registry has absorbed every event before this
		// minute's samples are labeled.
		if pending > 0 {
			if err := SyncBGP(ctx, member, registry, nextHop, m*60); err != nil {
				return nil, err
			}
		}

		samples = samples[:0]
		headerArena = headerArena[:0]
		for i := range buf {
			f := &buf[i]
			frame, err := synth.FrameFor(f, &builder)
			if err != nil {
				return nil, err
			}
			start := len(headerArena)
			headerArena = append(headerArena, frame...)
			seq++
			samples = append(samples, sflow.FlowSample{
				Sequence:     seq,
				SourceID:     1,
				SamplingRate: f.SamplingRate,
				SamplePool:   seq * f.SamplingRate,
				FrameLength:  uint32(f.Bytes / f.Packets),
				Header:       headerArena[start:len(headerArena):len(headerArena)],
			})
			if len(samples) == cfg.BatchSize {
				if err := exporter.Send(samples); err != nil {
					return nil, err
				}
				samples = samples[:0]
				headerArena = headerArena[:0]
			}
		}
		if len(samples) > 0 {
			if err := exporter.Send(samples); err != nil {
				return nil, err
			}
		}
		// Wait for the collector to drain this minute's datagrams before
		// advancing simulated time.
		totalSent += uint64(len(buf))
		if err := WaitSamples(ctx, collector, totalSent); err != nil {
			return nil, err
		}
	}

	// Stop the collector first: its shutdown path delivers the pending
	// partial batch, so the balancer has every record before its flush.
	cancel()
	if err := <-rsDone; err != nil {
		return nil, fmt.Errorf("ixpsim: route server: %w", err)
	}
	if err := <-colDone; err != nil {
		return nil, fmt.Errorf("ixpsim: collector: %w", err)
	}

	balMu.Lock()
	bal.Flush()
	res.BalanceStats = bal.Stats
	balMu.Unlock()

	res.Datagrams = collector.Stats.Datagrams.Load()
	res.Samples = collector.Stats.Samples.Load()
	res.Records = collector.Stats.Records.Load()
	res.Blackholed = collector.Stats.Blackholed.Load()
	res.BlackholesSeen = registry.PrefixCount()
	return res, nil
}
