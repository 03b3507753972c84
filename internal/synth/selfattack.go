package synth

import (
	"math/rand/v2"
	"net/netip"
)

// SelfAttackConfig parameterizes the generation of the self-attack set
// (SAS): controlled DDoS attacks against a dedicated victim AS, recorded
// with a method independent of blackholing signals (§4.1). The flows carry
// ground-truth labels: Blackholed is set on exactly the attack flows, which
// is how the SAS is used for validation.
type SelfAttackConfig struct {
	// Profile supplies the benign background and vector mix; its episode
	// machinery is unused.
	Profile Profile
	// Attacks is the number of purchased attack runs (each < 5 minutes,
	// per the ethics constraints in §4.3).
	Attacks int
	// AttackFlowsPerMin is the sampled flow rate during an attack run.
	AttackFlowsPerMin int
	// FromMin/ToMin bound the capture window in unix minutes.
	FromMin, ToMin int64
}

// DefaultSelfAttackConfig mirrors the paper's setup: 9 days in spring 2021,
// short booter attacks against a dedicated victim.
func DefaultSelfAttackConfig() SelfAttackConfig {
	from := Date(2021, 4, 12) / 60
	return SelfAttackConfig{
		Profile:           SASProfile(),
		Attacks:           160,
		AttackFlowsPerMin: 55,
		FromMin:           from,
		ToMin:             from + 9*24*60,
	}
}

// SelfAttackSet generates the SAS: benign background over the whole window
// plus short pure-DDoS attack runs against the victim. The returned flows
// are already labeled with ground truth (Blackholed == Attack), mirroring
// that the SAS label does not derive from BGP signals.
func SelfAttackSet(cfg SelfAttackConfig) []Flow {
	g := NewGenerator(cfg.Profile)
	rng := rand.New(rand.NewPCG(cfg.Profile.Seed^0x53A5, cfg.Profile.Seed+99))

	// The dedicated attacked IP, in a test prefix outside the member space.
	victim := netip.AddrFrom4([4]byte{198, 18, 0, 66})
	victimMAC := [6]byte{0x02, 0xDD, 0, 0, 0, 1}

	// Schedule attack runs: uniformly placed, 1-5 minutes each, 1-2 vectors.
	window := cfg.ToMin - cfg.FromMin
	type run struct {
		start, end int64
		vectors    []Vector
	}
	runs := make([]run, 0, cfg.Attacks)
	for i := 0; i < cfg.Attacks; i++ {
		start := cfg.FromMin + rng.Int64N(max64(window-5, 1))
		dur := 1 + rng.Int64N(5)
		nv := 1 + rng.IntN(2)
		vecs := make([]Vector, 0, nv)
		for j := 0; j < nv; j++ {
			if v, ok := g.pickVector(start * 60); ok {
				vecs = append(vecs, v)
			}
		}
		if len(vecs) == 0 {
			continue
		}
		runs = append(runs, run{start: start, end: start + dur, vectors: vecs})
	}

	var flows []Flow
	for m := cfg.FromMin; m < cfg.ToMin; m++ {
		flows = g.GenerateMinute(m, flows)
		at := m * 60
		for _, r := range runs {
			if m < r.start || m >= r.end {
				continue
			}
			ep := &episode{
				victim:        victim,
				victimMAC:     victimMAC,
				vectors:       r.vectors,
				blackholeFrom: -1,
			}
			n := poisson(g.rng, float64(cfg.AttackFlowsPerMin))
			for i := 0; i < n; i++ {
				v := r.vectors[g.rng.IntN(len(r.vectors))]
				f := g.attackFlow(at, ep, v)
				f.Blackholed = true // ground truth label, not a BGP signal
				flows = append(flows, f)
			}
		}
	}
	return flows
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}
