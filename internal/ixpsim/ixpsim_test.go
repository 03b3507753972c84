package ixpsim

import (
	"context"
	"testing"
	"time"

	"github.com/ixp-scrubber/ixpscrubber/internal/synth"
)

func simProfile() synth.Profile {
	p := synth.ProfileUS2()
	p.BenignFlowsPerMin = 300
	p.EpisodeRatePerMin = 0.15
	p.Seed = 0x51A1
	return p
}

// TestRunEndToEnd drives the full wire-protocol pipeline: generator ->
// sFlow/UDP -> collector -> BGP-labeled -> balancer, and checks the result
// against ground truth from a parallel offline run of the same generator.
func TestRunEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("live sockets")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()

	cfg := Config{
		Profile: simProfile(),
		FromMin: 1000,
		ToMin:   1030,
	}
	res, err := Run(ctx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Records == 0 || res.Datagrams == 0 {
		t.Fatalf("collector saw nothing: %+v", res)
	}
	if res.Blackholed == 0 {
		t.Fatal("no flows labeled blackholed via the live BGP path")
	}
	if res.BlackholesSeen == 0 {
		t.Fatal("registry recorded no blackholes")
	}
	if len(res.Balanced) == 0 {
		t.Fatal("balanced output empty")
	}
	// The collector stops, flushing its partial batch, before the balancer's
	// final flush: every converted record reaches the balancer.
	if res.BalanceStats.In != res.Records {
		t.Errorf("balancer saw %d records, collector converted %d", res.BalanceStats.In, res.Records)
	}
	// Balanced share is ~50% like the offline pipeline.
	bh := 0
	for i := range res.Balanced {
		if res.Balanced[i].Blackholed {
			bh++
		}
	}
	share := float64(bh) / float64(len(res.Balanced))
	if share < 0.35 || share > 0.7 {
		t.Errorf("balanced blackhole share = %.3f", share)
	}

	// Loopback delivery should be essentially lossless.
	offline := synth.NewGenerator(simProfile())
	expected := len(offline.Generate(1000, 1030))
	if got := int(res.Samples); got < expected*95/100 {
		t.Errorf("samples = %d, expected ~%d (>5%% loss)", got, expected)
	}

	// The live labeling must agree with the generator's ground truth
	// windows: compare blackholed counts within 20%.
	offline2 := synth.NewGenerator(simProfile())
	flows := offline2.Generate(1000, 1030)
	truth := 0
	for i := range flows {
		if flows[i].Blackholed {
			truth++
		}
	}
	if truth == 0 {
		t.Fatal("ground truth has no blackholed flows; profile too quiet")
	}
	got := int(res.Blackholed)
	lo, hi := truth*8/10, truth*12/10
	if got < lo || got > hi {
		t.Errorf("live blackholed = %d, ground truth = %d (outside ±20%%)", got, truth)
	}
}

func TestRunRespectsContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := Run(ctx, Config{Profile: simProfile(), FromMin: 0, ToMin: 10})
	if err == nil {
		t.Fatal("canceled context must abort the run")
	}
}
