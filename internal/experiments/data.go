package experiments

import (
	"sync"

	"github.com/ixp-scrubber/ixpscrubber/internal/balance"
	"github.com/ixp-scrubber/ixpscrubber/internal/core"
	"github.com/ixp-scrubber/ixpscrubber/internal/obs"
	"github.com/ixp-scrubber/ixpscrubber/internal/synth"
)

// Config scales the experiments: Scale 1.0 runs the window sizes documented
// in EXPERIMENTS.md; smaller values shrink every time window (benchmarks
// use 0.25-0.5 to stay in seconds). Scale does not change traffic rates,
// only durations, so the statistical shapes survive scaling.
type Config struct {
	Scale float64
	Seed  uint64
	// Workers bounds the worker pool for the harness (concurrent artifact
	// runners, the Table-3/5 model-zoo loop) and is threaded into every
	// core.Scrubber the experiments build: 0 sizes from GOMAXPROCS, 1
	// forces the serial path. Artifact contents are bit-for-bit identical
	// at every value; only wall-clock (and therefore the µs/pred timing
	// columns) changes.
	Workers int
	// Metrics, when non-nil, records per-artifact wall time and output
	// sizes into the registry so a benchmark run is self-describing (the
	// registry's exposition text can be archived next to the results).
	Metrics *obs.Registry
}

// coreDefaults is core.DefaultConfig with the harness worker knob threaded
// through, so scrubbers built inside experiments share the pool sizing.
func (c Config) coreDefaults() core.Config {
	cc := core.DefaultConfig()
	cc.Workers = c.Workers
	return cc
}

// minutes scales a duration (in minutes) by the config, with a floor.
func (c Config) minutes(base int64) int64 {
	scale := c.Scale
	if scale <= 0 {
		scale = 1
	}
	m := int64(float64(base) * scale)
	if m < 30 {
		m = 30
	}
	return m
}

// corpus is one generated-and-balanced window of a vantage point with
// ground truth retained.
type corpus struct {
	profile  synth.Profile
	balanced []synth.Flow
	stats    balance.Stats
	// raw traffic statistics gathered during generation without storing
	// the raw stream (the online part of Table 2 / Fig. 3a).
	rawFlows       uint64
	rawBytes       uint64
	rawBHBytes     uint64
	minuteShares   []float64 // per-minute blackhole byte share (Fig. 3a)
	fromMin, toMin int64
}

// buildCorpus streams the generator through the balancer, collecting the
// raw statistics on the fly (records not selected are discarded, mirroring
// the paper's privacy-preserving online reduction).
func buildCorpus(p synth.Profile, fromMin, toMin int64) *corpus {
	g := synth.NewGenerator(p)
	c := &corpus{profile: p, fromMin: fromMin, toMin: toMin}
	bal := balance.ForFlows(p.Seed^0xBA1A, func(f synth.Flow) {
		c.balanced = append(c.balanced, f)
	})
	var buf []synth.Flow
	for m := fromMin; m < toMin; m++ {
		buf = g.GenerateMinute(m, buf[:0])
		var bytes, bhBytes uint64
		for i := range buf {
			bytes += buf[i].Bytes
			if buf[i].Blackholed {
				bhBytes += buf[i].Bytes
			}
			bal.Add(buf[i])
		}
		c.rawFlows += uint64(len(buf))
		c.rawBytes += bytes
		c.rawBHBytes += bhBytes
		if bytes > 0 {
			c.minuteShares = append(c.minuteShares, float64(bhBytes)/float64(bytes))
		}
	}
	bal.Flush()
	c.stats = bal.Stats
	return c
}

// newBalancerInto returns a balancer appending kept flows into c.balanced.
func newBalancerInto(c *corpus) *balance.Balancer[synth.Flow] {
	return balance.ForFlows(c.profile.Seed^0xBA1A, func(f synth.Flow) {
		c.balanced = append(c.balanced, f)
	})
}

// corpusCache shares corpora between experiments in one process (several
// experiments read the same vantage point windows). Entries are built
// singleflight: when concurrent experiments want the same window, one
// builds while the others wait on the entry's Once — corpora take minutes
// at full scale, so duplicate builds would erase the harness's parallel
// speedup.
var corpusCache = struct {
	mu sync.Mutex
	m  map[string]*corpusEntry
}{m: make(map[string]*corpusEntry)}

type corpusEntry struct {
	once sync.Once
	c    *corpus
}

func cachedCorpus(key string, build func() *corpus) *corpus {
	corpusCache.mu.Lock()
	e := corpusCache.m[key]
	if e == nil {
		e = &corpusEntry{}
		corpusCache.m[key] = e
	}
	corpusCache.mu.Unlock()
	e.once.Do(func() { e.c = build() })
	return e.c
}

// ResetCaches drops every shared corpus and bundle. Benchmarks call it so
// serial-vs-parallel comparisons measure full regenerations rather than
// cache hits; production code never needs it.
func ResetCaches() {
	corpusCache.mu.Lock()
	corpusCache.m = make(map[string]*corpusEntry)
	corpusCache.mu.Unlock()
	bundleCache.mu.Lock()
	bundleCache.m = make(map[string]*bundleEntry)
	bundleCache.mu.Unlock()
}

// mlWindowMinutes is the base training+evaluation window of the model
// experiments (one day).
const mlWindowMinutes = 1440

// mlCorpus returns the balanced one-day corpus of one vantage point at the
// configured scale, shared across experiments.
func mlCorpus(cfg Config, p synth.Profile) *corpus {
	minutes := cfg.minutes(mlWindowMinutes)
	key := p.Name + "/" + itoa(minutes) + "/" + itoa(int64(cfg.Seed))
	return cachedCorpus(key, func() *corpus {
		pp := p
		if cfg.Seed != 0 {
			pp.Seed = p.Seed ^ cfg.Seed<<32
		}
		return buildCorpus(pp, 0, minutes)
	})
}

func itoa(v int64) string {
	if v == 0 {
		return "0"
	}
	neg := v < 0
	if neg {
		v = -v
	}
	var buf [20]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	if neg {
		i--
		buf[i] = '-'
	}
	return string(buf[i:])
}

// mergedCorpus concatenates the balanced corpora of all five vantage points
// (the "all IXPs merged" training set of §6.1). Flows keep their per-IXP
// timestamps; training splits are made per corpus and then merged so no
// minute straddles a split.
func mergedCorpus(cfg Config) []*corpus {
	profiles := synth.Profiles()
	out := make([]*corpus, len(profiles))
	for i, p := range profiles {
		out[i] = mlCorpus(cfg, p)
	}
	return out
}

// splitCorpus returns train/test flow slices cut at trainFrac of the
// corpus, aligned to a minute boundary.
func splitCorpus(c *corpus, trainFrac float64) (train, test []synth.Flow) {
	cut := int(float64(len(c.balanced)) * trainFrac)
	for cut < len(c.balanced) && cut > 0 &&
		c.balanced[cut].Minute() == c.balanced[cut-1].Minute() {
		cut++
	}
	return c.balanced[:cut], c.balanced[cut:]
}
