package main

import (
	"runtime"
	"time"

	"github.com/ixp-scrubber/ixpscrubber/internal/synth"
)

// nproc is what every workload is sized for: GOMAXPROCS = the machine's
// cores, training workers = GOMAXPROCS (core.Config.Workers 0).
var nproc = runtime.NumCPU()

// refSeconds is the run length the pass counts below are written for: on
// the seed commit and a 2-core box the scripted passes of each workload
// take about this long. -seconds scales the pass counts linearly; the
// scripts stay fixed (fixed datagram and round counts, never a wall-time
// budget) so every count repeats exactly.
const refSeconds = 10

// setupsPerRun is how many times an end-to-end run sets its workload up;
// setup_s is their median and the last system is the one measured. A smoke
// run sets up once, as a traced run does.
const setupsPerRun = 3

func setupCount(smoke bool) int {
	if smoke {
		return 1
	}
	return setupsPerRun
}

// profileSeed spreads -seed over the generator seeds without moving the
// member address space out of its /8 (synth derives it from seed%90).
func profileSeed(base, seed uint64) uint64 { return base + 90*seed }

// us2Scaled is the IXP-US2 shape of Table 2 at another traffic volume.
func us2Scaled(seed uint64, benignPerMin int) synth.Profile {
	p := synth.ProfileUS2()
	p.Seed = profileSeed(p.Seed, seed)
	p.BenignFlowsPerMin = benignPerMin
	p.TargetIPs = benignPerMin / 2
	p.BenignSrcIPs = benignPerMin * 2
	return p
}

// sixVectors is every workload's attack vector mix: the six most prevalent
// vectors of the training set. With the full catalogue, which rare vectors
// a seed happens to draw changes the mined rule list, and with it the drop
// program's match cost, by a factor of three; with six, every seed's
// victims cover them all and the rule list keeps its shape.
var sixVectors = map[string]float64{
	"UDP Fragm.": 0.09, "DNS": 0.17, "NTP": 0.20, "SNMP": 0.10, "LDAP": 0.12, "SSDP": 0.08,
}

// gate is one limit the output check holds a run to. The driver's bounds
// reach only the metrics every workload reports; mitigation efficacy,
// detection latency and gossip time exist on some workloads only, so they
// are gated here instead: the limits below sit just off the worst value the
// seed commit showed over seeds 1-12, 61-70, 100-104, 200-259 and 7919 at
// the reference run length, and a run that breaks one fails. Mined rule
// lists differ from seed to seed, so the worst seed sits well below the
// typical one on attack-storm (0.92 against 0.99). Wall times are held as a
// ratio to the training rounds beside them in the same run (which the driver
// bounds), pair by pair, so a limit means the same on a faster or slower
// machine and does not move when the host slows down for part of a run.
type gate struct {
	name  string
	limit float64
	floor bool // the value may not fall below limit; otherwise not rise above
}

func atLeast(name string, limit float64) gate { return gate{name, limit, true} }
func atMost(name string, limit float64) gate  { return gate{name, limit, false} }

// looseSiteGates replace a workload's gates on a run shorter than the
// reference length, whose scripts are too short for the pinned values.
var looseSiteGates = []gate{
	atLeast("flagged_f1", 0.5), atLeast("attack_drop_share", 0.5), atMost("benign_drop_share", 0.05),
}

var siteSpecs = []siteSpec{
	{
		name: "ingest-flood",
		// Benign-dominant: sixteen victims at 32 attack samples a minute
		// are 0.6 % of the samples. The generator runs more and stronger
		// episodes than that; the shaper admits sixteen.
		profile: func(seed uint64) synth.Profile {
			p := us2Scaled(seed, 96_000)
			p.EpisodeRatePerMin = 4
			p.AttackFlowsPerMin = 100
			p.VectorWeights = sixVectors
			return p
		},
		victims: 16, attackPerMin: 32,
		// A window as long as the history slides over the replayed passes:
		// every round trains on the same amount of traffic.
		window:     8 * time.Minute,
		prefillMin: 8, keepEvery: 1,
		scriptMin: 4, passes: 32, passes1p: 10, trainEvery: 8,
		// A handful of fresh onsets per seed: detection is not gated here.
		gates: []gate{
			atLeast("flagged_f1", 0.85), atLeast("attack_drop_share", 0.90), atMost("benign_drop_share", 1e-4),
		},
	},
	{
		name: "attack-storm",
		// Two hundred victims spread over 400 member /24s at 40 attack
		// samples a minute draw more than half of the samples.
		profile: func(seed uint64) synth.Profile {
			p := us2Scaled(seed, 7_000)
			p.Members = 400
			// Long episodes: the generator keeps an attack flowing for a
			// minute after its blackhole is withdrawn, and those unlabelled
			// attack samples must stay rare or no rule reaches the 0.9
			// confidence the acceptance policy asks for.
			p.EpisodeRatePerMin = 25
			p.EpisodeDurMeanMin = 20
			p.AttackFlowsPerMin = 120
			p.VectorWeights = sixVectors
			return p
		},
		victims: 200, attackPerMin: 40,
		window:     10 * time.Minute,
		prefillMin: 12, keepEvery: 4,
		scriptMin: 10, passes: 20, passes1p: 8, trainEvery: 10,
		gates: []gate{
			atLeast("flagged_f1", 0.65), atLeast("attack_drop_share", 0.85), atMost("benign_drop_share", 0.02),
			// A fresh victim is dropped from the first round after its onset.
			atMost("detect_sim_minutes", 10.5), atMost("fresh_victims_missed_share", 0.05),
		},
	},
	{
		name: "retrain-cycle",
		// A simulated minute of ~10k samples is followed by a round on an
		// hour's window, every minute, so an onset in minute m can be
		// dropped in minute m+1; short episodes keep fresh onsets coming.
		profile: func(seed uint64) synth.Profile {
			p := us2Scaled(seed, 10_000)
			p.EpisodeRatePerMin = 6
			p.EpisodeDurMeanMin = 6
			p.AttackFlowsPerMin = 100
			p.VectorWeights = sixVectors
			return p
		},
		victims: 16, attackPerMin: 32,
		window:     time.Hour,
		prefillMin: 60, keepEvery: 1,
		scriptMin: 28, passes: 1, passesFlat: 8, passes1p: 3, trainEvery: 1,
		scaleScript: true, checkpoint: true,
		gates: []gate{
			atLeast("flagged_f1", 0.80), atLeast("attack_drop_share", 0.97), atMost("benign_drop_share", 0.01),
			atMost("detect_sim_minutes", 1.1), atMost("fresh_victims_missed_share", 0.15),
			// Detection is the round it waits for plus queue drain and the
			// first match against the swapped-in program: 1.02 to 1.03 of it
			// on the seed commit, on every seed, on a busy host too.
			atMost("detect_wall_over_rounds_p50", 1.06), atMost("detect_wall_over_rounds_p75", 1.10),
		},
	},
}
