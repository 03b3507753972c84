package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"net/netip"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"github.com/ixp-scrubber/ixpscrubber/internal/acl"
	"github.com/ixp-scrubber/ixpscrubber/internal/bgp"
	"github.com/ixp-scrubber/ixpscrubber/internal/dropper"
	"github.com/ixp-scrubber/ixpscrubber/internal/ixpsim"
	"github.com/ixp-scrubber/ixpscrubber/internal/netflow"
	"github.com/ixp-scrubber/ixpscrubber/internal/obs"
	"github.com/ixp-scrubber/ixpscrubber/internal/segment"
	"github.com/ixp-scrubber/ixpscrubber/internal/synth"
)

// siteSpec parameterises one single-site workload. The three single-site
// workloads are the same loop — apply BGP state, hand a minute of
// datagrams to the socket, settle, retrain on a cadence — over different
// traffic and different proportions.
type siteSpec struct {
	name    string
	profile func(seed uint64) synth.Profile
	// victims concurrently attacked addresses draw attackPerMin attack
	// samples a minute each; see shaper.
	victims, attackPerMin int
	window                time.Duration
	// prefillMin minutes of history are fed in set-up (every keepEvery-th
	// flow), then one warm training round installs a model and a compiled
	// drop program before the timed region.
	prefillMin, keepEvery int
	// scriptMin generated minutes are replayed passes times at
	// GOMAXPROCS=nproc (clock shifted by scriptMin per pass) with a
	// training round every trainEvery minutes, then passesFlat times more
	// without rounds, then passes1p times at GOMAXPROCS=1 without rounds.
	// Throughput is taken from the round-less nproc passes when there are
	// any (the workload whose minutes are too small to time one by one
	// between rounds), else from the passes with rounds.
	scriptMin, passes, passesFlat, passes1p, trainEvery int
	// scaleScript scales scriptMin instead of passes with the run length:
	// for the workload whose every minute must carry fresh onsets.
	scaleScript bool
	checkpoint  bool
	// smoke is set by scaled on a run short enough to be a plumbing check.
	smoke bool
	gates []gate
}

// scaled returns the spec with its pass counts scaled to a run of the
// given length; specs are sized for the reference run of refSeconds.
func (s siteSpec) scaled(seconds float64) siteSpec {
	f := seconds / refSeconds
	scale := func(n int) int {
		if n == 0 {
			return 0
		}
		if v := int(float64(n)*f + 0.5); v > 1 {
			return v
		}
		return 1
	}
	if s.scaleScript {
		s.scriptMin = scale(s.scriptMin)
	} else {
		s.passes = scale(s.passes)
	}
	s.passesFlat, s.passes1p = scale(s.passesFlat), scale(s.passes1p)
	if f < 1 {
		s.gates = looseSiteGates
	}
	if f < smokeScale {
		// A smoke run checks the plumbing, not the numbers: halve the
		// history and the script too.
		s.smoke = true
		s.prefillMin = (s.prefillMin + 1) / 2
		if !s.scaleScript {
			s.scriptMin = (s.scriptMin + 1) / 2
		}
		if n := s.scriptMin * s.passes; s.trainEvery > n {
			s.trainEvery = n // at least one round in the timed region
		}
	}
	return s
}

// smokeScale is the run-length ratio below which a run is a smoke run.
const smokeScale = 0.05

type vclock struct{ t atomic.Int64 }

func (c *vclock) Set(t int64) { c.t.Store(t) }
func (c *vclock) Now() int64  { return c.t.Load() }

// siteSystem is the production assembly under test: segment.New with an
// sflow → scrubber chain, Drop on, obs registry attached.
type siteSystem struct {
	dir      string
	clock    vclock
	registry *bgp.Registry
	conn     *ringConn
	metrics  *obs.Registry
	seg      *segment.Pipeline
	pipe     *ixpsim.Pipeline
	drop     *dropper.Stage
	cancel   context.CancelFunc

	sent     uint64 // samples handed to the socket plus records fed
	depthMax uint64 // deepest ingest queue seen at a settle poll, records
}

func assembleSite(spec *siteSpec, seed uint64, dir string) (*siteSystem, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	s := &siteSystem{
		dir:      dir,
		registry: bgp.NewRegistry(),
		conn:     newRingConn(),
		metrics:  obs.NewRegistry(),
	}
	scrubber := map[string]any{
		"seed":        seed,
		"window":      spec.window,
		"queue-cap":   64,
		"drop-policy": "block",
		"acl":         filepath.Join(dir, "acl.txt"),
		"drop":        true,
	}
	if spec.checkpoint {
		scrubber["checkpoint"] = s.checkpointPath()
	}
	cfg := &segment.Config{Name: "bench", Pipeline: []segment.SegmentConfig{
		{Kind: "sflow", Params: map[string]any{"listen": "ring"}},
		{Kind: "scrubber", Params: scrubber},
	}}
	env := segment.Env{
		Metrics:      s.metrics,
		Label:        s.registry.Covered,
		Clock:        s.clock.Now,
		ListenPacket: func(string, string) (net.PacketConn, error) { return s.conn, nil },
	}
	seg, err := segment.New(env, cfg)
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	if err := seg.Start(ctx); err != nil {
		cancel()
		return nil, err
	}
	s.seg, s.pipe, s.cancel = seg, seg.Scrubber(), cancel
	s.drop = s.pipe.Dropper()
	return s, nil
}

func (s *siteSystem) checkpointPath() string { return filepath.Join(s.dir, "checkpoint.json") }

func (s *siteSystem) close() {
	_ = s.seg.Close()
	s.cancel()
}

// applyEvents drives the blackhole registry directly, stamped with the
// clock as the route server would stamp an UPDATE on arrival.
func applyEvents(reg *bgp.Registry, evs []synth.BlackholeEvent, at int64) {
	for _, ev := range evs {
		if ev.Announce {
			reg.Announce(ev.Prefix, at)
		} else {
			reg.Withdraw(ev.Prefix, at)
		}
	}
}

// rewindBlackholes puts the registry, at the start of a replayed pass, back
// into the state the first pass found: what the script announced and had not
// withdrawn by its end is withdrawn, what was blackholed when it began is
// announced again. Otherwise a victim of minute 20 would be blackholed from
// minute 0 of every replay, and its benign traffic labelled with it.
func rewindBlackholes(reg *bgp.Registry, initial []netip.Prefix, at int64) {
	keep := make(map[netip.Prefix]bool, len(initial))
	for _, pfx := range initial {
		keep[pfx] = true
	}
	for _, pfx := range reg.ActiveAt(at) {
		if !keep[pfx] {
			reg.Withdraw(pfx, at)
		}
	}
	for _, pfx := range initial {
		reg.Announce(pfx, at)
	}
}

const (
	settlePoll    = 20 * time.Microsecond
	settleTimeout = 60 * time.Second
)

// settle blocks until every sample sent so far was either dropped by the
// drop stage or consumed by the balancer. onPoll, when set, observes the
// drop counter at every poll (detection timestamps hang off it).
func (s *siteSystem) settle(onPoll func(dropped uint64, now time.Time)) (time.Time, error) {
	qs := s.pipe.QueueStats()
	deadline := time.Now().Add(settleTimeout)
	for {
		dropped := s.drop.Stats().Dropped
		now := time.Now()
		if onPoll != nil {
			onPoll(dropped, now)
		}
		ing := s.pipe.Ingested()
		if dropped+ing >= s.sent {
			return now, nil
		}
		if in, out := qs.RecordsIn.Load(), qs.RecordsOut.Load(); in > out && in-out > s.depthMax {
			s.depthMax = in - out
		}
		if now.After(deadline) {
			return now, fmt.Errorf("bench: settle timed out: sent %d, dropped %d, ingested %d", s.sent, dropped, ing)
		}
		time.Sleep(settlePoll)
	}
}

// scrape renders the obs registry once and returns the sample lines as a
// map keyed by `name{labels}` — the benchmark reads the collector and
// segment counters the way an operator would.
func (s *siteSystem) scrape() (map[string]float64, error) {
	var buf bytes.Buffer
	if err := s.metrics.WritePrometheus(&buf); err != nil {
		return nil, err
	}
	out := map[string]float64{}
	for _, line := range strings.Split(buf.String(), "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			continue
		}
		out[line[:sp]] = v
	}
	return out, nil
}

// victim is the ground truth and observed fate of one attacked address.
type victim struct {
	fresh       bool // onset inside the timed region, not running since set-up
	onsetMinute int  // timed-minute index of the first attack sample
	flagged     bool // a training round has flagged it
	detected    bool // a record toward it has been dropped
	dropMinute  int
	dropOrdinal uint64 // ordinal of its first dropped record within dropMinute
	dropWall    time.Time
	lastAttack  int64 // absolute minute of its latest attack sample
}

// siteResult is everything one production-assembly run measured.
type siteResult struct {
	commonResult
	generateSec, encodeSec float64
	datagrams, samples     int

	ingestWallSec        float64 // Σ nproc ingest windows
	blockedSec           float64 // collector blocked in ReadFrom inside them
	settleWaitSec        float64 // driver waiting for settle inside them
	roundsSkipped        int
	detectWallMS         []float64
	detectSimMin         []float64
	detectOverRounds     []float64 // per episode: detection wall ÷ wall of the rounds it waited for
	freshVictims, missed int

	attackSent, attackDropped uint64 // attack samples toward already-flagged victims
	benignSent, benignDropped uint64

	sentSamples   uint64 // handed to the socket in the timed region
	windowRecords int
	flagged       []netip.Addr
	aclDigest     uint64
}

// commonResult is what every workload's production run measures, the stuff
// of the end-to-end metrics.
type commonResult struct {
	setupSec              []float64
	rate, rate1p          []float64 // records/s per timed minute, nproc and 1 proc
	ingestRecords         uint64    // records inside the nproc ingest windows
	ingestAllocs          uint64    // heap objects allocated inside them
	roundMS, roundAllocMB []float64
	liveHeapMB            float64
	scrapeMS              []float64
	lost                  uint64
	f1                    float64
	counters              map[string]float64
}

// endToEnd fills the end-to-end metrics, which every workload has.
func (r *commonResult) endToEnd(out *runOutput) {
	m, n := out.Metrics, out.Samples
	m["setup_s"], n["setup_s"] = median(r.setupSec), len(r.setupSec)
	m["ingest_records_per_s"], n["ingest_records_per_s"] = median(r.rate), len(r.rate)
	m["ingest_records_per_s_1p"], n["ingest_records_per_s_1p"] = median(r.rate1p), len(r.rate1p)
	m["ingest_allocs_per_record"] = ratio(float64(r.ingestAllocs), float64(r.ingestRecords))
	m["train_round_ms_p50"], n["train_round_ms_p50"] = median(r.roundMS), len(r.roundMS)
	m["train_round_ms_p75"], n["train_round_ms_p75"] = quantile(r.roundMS, 0.75), len(r.roundMS)
	m["train_alloc_mb_per_round"], n["train_alloc_mb_per_round"] = mean(r.roundAllocMB), len(r.roundAllocMB)
	m["live_heap_mb"] = r.liveHeapMB
	out.Series = map[string][]float64{
		"setup_s": r.setupSec, "minute_records_per_s": r.rate, "minute_records_per_s_1p": r.rate1p,
		"train_round_ms": r.roundMS, "train_alloc_mb": r.roundAllocMB,
	}
	out.Counters = r.counters
}

// setupSite builds the inputs and the warmed-up system: script generation,
// datagram encoding, window pre-fill and one warm training round.
func setupSite(spec *siteSpec, seed uint64, dir string, keepHistory bool) (sys *siteSystem, sc *script, warm []netip.Addr, sec float64, err error) {
	t0 := nowSec()
	prof := spec.profile(seed)
	sc, err = buildScript(prof, newShaper(spec.victims, spec.attackPerMin, prof.VictimBenignRatio), spec.prefillMin, spec.scriptMin, spec.keepEvery)
	if err != nil {
		return nil, nil, nil, 0, err
	}
	sys, err = assembleSite(spec, seed, dir)
	if err != nil {
		return nil, nil, nil, 0, err
	}
	first := int64(startMin - spec.prefillMin)
	for i, recs := range sc.prefill {
		at := (first + int64(i)) * 60
		sys.clock.Set(at)
		applyEvents(sys.registry, sc.prefillEvents[i], at)
		sys.seg.Feed(recs)
		sys.sent += uint64(len(recs))
	}
	if !keepHistory {
		sc.prefill = nil // fed; the history is the system's now
	}
	if _, err = sys.settle(nil); err == nil {
		sys.clock.Set(startMin * 60)
		var round *ixpsim.Round
		if round, err = sys.pipe.TrainRound(context.Background(), sys.clock.Now()); err == nil {
			if round.Skipped {
				err = fmt.Errorf("bench: warm round skipped: window holds %d records", round.Records)
			} else {
				warm = round.Flagged
			}
		}
	}
	if err != nil {
		sys.close()
		return nil, nil, nil, 0, fmt.Errorf("bench: set-up: %w", err)
	}
	sys.depthMax = 0 // the history was fed in whole-minute batches
	return sys, sc, warm, nowSec() - t0, nil
}

// startSite sets the workload up `setups` times — the last system is the
// one measured — and returns the runner holding it. keepHistory retains
// the set-up history in the script for a staged replica to re-feed.
func startSite(spec *siteSpec, seed uint64, dir string, setups int, keepHistory bool) (*siteRunner, error) {
	res := &siteResult{commonResult: commonResult{counters: map[string]float64{}}}
	var (
		sys  *siteSystem
		sc   *script
		warm []netip.Addr
	)
	for i := 0; i < setups; i++ {
		if sys != nil {
			sys.close()
			sys, sc = nil, nil
		}
		var sec float64
		var err error
		sys, sc, warm, sec, err = setupSite(spec, seed, filepath.Join(dir, fmt.Sprintf("setup-%d", i)), keepHistory)
		if err != nil {
			return nil, err
		}
		res.setupSec = append(res.setupSec, sec)
	}
	res.generateSec, res.encodeSec = sc.generateSec, sc.encodeSec
	res.samples = sc.samples
	for i := range sc.minutes {
		res.datagrams += len(sc.minutes[i].datagrams)
	}
	return newSiteRunner(spec, sys, sc, res, warm), nil
}

// execute is the untraced production-assembly run: the scripted passes at
// GOMAXPROCS=nproc with their lock-step rounds, the round-less passes at
// GOMAXPROCS=nproc and then at GOMAXPROCS=1, a final round, then the output
// check.
func (r *siteRunner) execute() error {
	spec, sys, res := r.spec, r.sys, r.res
	base, err := r.snapshot()
	if err != nil {
		return err
	}
	gc := startGCWatch()

	ctx := context.Background()
	for p := 0; p < spec.passes; p++ {
		if err := r.pass(ctx, p, roundsPhase); err != nil {
			return err
		}
	}
	r.nprocMinutes = r.minute
	for p := 0; p < spec.passesFlat; p++ {
		if err := r.pass(ctx, spec.passes+p, flatPhase); err != nil {
			return err
		}
	}
	err = atOneProc(func() error {
		for p := 0; p < spec.passes1p; p++ {
			if err := r.pass(ctx, spec.passes+spec.passesFlat+p, oneProcPhase); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}

	// Final round outside every clock: it flushes the last minute bin (so
	// the balancer's In counter is complete) and yields the verdicts the
	// output check scores.
	round, err := sys.pipe.TrainRound(ctx, sys.clock.Now())
	if err != nil {
		return fmt.Errorf("bench: final round: %w", err)
	}
	res.flagged = round.Flagged
	res.aclDigest = netflow.FoldString(netflow.FNVOffset, round.ACLText)
	res.windowRecords = round.Records

	inputs := r.sc.heapBytes
	if r.sc.prefill != nil {
		inputs += r.sc.historyBytes
	}
	res.liveHeapMB = gc.finish(res.counters) - float64(inputs)/(1<<20)
	res.counters["runtime.heap_live_mb"] = res.liveHeapMB
	r.finish()
	return r.collect(base)
}

func (r *siteRunner) close() { r.sys.close() }

// siteRunner carries the per-run state of the scripted loop.
type siteRunner struct {
	spec *siteSpec
	sys  *siteSystem
	sc   *script
	res  *siteResult

	victims      map[[4]byte]*victim
	warmFlagged  map[[4]byte]bool
	active       []netip.Prefix // blackholes active at script start
	minute       int            // timed minutes run so far, both phases
	nprocMinutes int            // timed minutes of the nproc phase
	handedAt     []time.Time    // per timed minute: last datagram handed over
	roundAfterMS []float64      // per timed minute: wall of the round that followed it, if one did
	pending      []*victim      // first drops to timestamp in the current minute
}

func newSiteRunner(spec *siteSpec, sys *siteSystem, sc *script, res *siteResult, warm []netip.Addr) *siteRunner {
	r := &siteRunner{spec: spec, sys: sys, sc: sc, res: res,
		victims: map[[4]byte]*victim{}, warmFlagged: map[[4]byte]bool{}}
	for _, a := range warm {
		r.warmFlagged[a.As4()] = true
	}
	r.active = sys.registry.ActiveAt(startMin * 60)
	return r
}

// phase is what part of the run a pass belongs to.
type phase int

const (
	roundsPhase  phase = iota // GOMAXPROCS=nproc, lock-step rounds
	flatPhase                 // GOMAXPROCS=nproc, no rounds
	oneProcPhase              // GOMAXPROCS=1, no rounds
)

func (r *siteRunner) pass(ctx context.Context, p int, ph phase) error {
	base := int64(startMin + p*len(r.sc.minutes))
	if p > 0 {
		rewindBlackholes(r.sys.registry, r.active, base*60)
	}
	for k := range r.sc.minutes {
		if err := r.minuteStep(base+int64(k), &r.sc.minutes[k], ph); err != nil {
			return err
		}
		if ph == roundsPhase && r.minute%r.spec.trainEvery == 0 {
			if err := r.round(ctx); err != nil {
				return err
			}
		}
	}
	return nil
}

// minuteStep runs one simulated minute: BGP state, shadow drop accounting
// (untimed), then the timed window from the first datagram handed to the
// socket until the minute has settled.
func (r *siteRunner) minuteStep(abs int64, ms *minuteScript, ph phase) error {
	sys, res := r.sys, r.res
	sys.clock.Set(abs * 60)
	applyEvents(sys.registry, ms.events, abs*60)
	predicted := r.shadow(abs, ms, ph == roundsPhase)
	dropBase := sys.drop.Stats().Dropped
	blocked0 := sys.conn.blockedNS.Load()
	n := uint64(len(ms.truth))

	a0 := readAllocs()
	t0 := time.Now()
	sys.conn.beginBurst(t0)
	for _, d := range ms.datagrams {
		sys.conn.send(d)
	}
	handed := time.Now()
	sys.conn.endBurst()
	sys.sent += n
	pending := r.pending
	t1, err := sys.settle(func(dropped uint64, now time.Time) {
		for len(pending) > 0 && dropped-dropBase >= pending[0].dropOrdinal {
			pending[0].dropWall = now
			pending = pending[1:]
		}
	})
	sys.conn.closeWindow()
	a1 := readAllocs()
	if err != nil {
		return err
	}
	if got := sys.drop.Stats().Dropped - dropBase; got != predicted {
		return fmt.Errorf("bench: minute %d: drop stage dropped %d records, ground truth against the live program says %d", r.minute, got, predicted)
	}

	wall := t1.Sub(t0).Seconds()
	rate := float64(n) / wall
	res.sentSamples += n
	switch {
	case ph == oneProcPhase:
		res.rate1p = append(res.rate1p, rate)
	case ph == roundsPhase && r.spec.passesFlat > 0:
		// Too small to time between rounds; the flat passes carry it.
	default:
		res.rate = append(res.rate, rate)
		res.ingestRecords += n
		res.ingestAllocs += a1.objects - a0.objects
		res.ingestWallSec += wall
		res.blockedSec += float64(sys.conn.blockedNS.Load()-blocked0) / 1e9
		res.settleWaitSec += t1.Sub(handed).Seconds()
	}
	r.handedAt = append(r.handedAt, handed)
	r.roundAfterMS = append(r.roundAfterMS, 0)
	r.minute++

	// One scrape per simulated minute, as a monitoring system would.
	t := time.Now()
	if err := sys.metrics.WritePrometheus(io.Discard); err != nil {
		return err
	}
	res.scrapeMS = append(res.scrapeMS, float64(time.Since(t).Nanoseconds())/1e6)
	return nil
}

// shadow replays the minute's ground truth against the live drop program
// — the program cannot change until the next lock-step round — and returns
// how many records the drop stage must drop. This is how drops are
// attributed to attack and benign traffic, and first drops to victims,
// from outside the stage; minuteStep checks the total against the stage's
// own counter.
func (r *siteRunner) shadow(abs int64, ms *minuteScript, rounds bool) uint64 {
	prog := r.sys.drop.Program()
	rate := r.sc.profile.SamplingRate
	res := r.res
	var n uint64
	r.pending = r.pending[:0]
	for i := range ms.truth {
		t := &ms.truth[i]
		rec := t.record(rate)
		idx := prog.Match(&rec)
		dropped := idx >= 0 && prog.Action(idx) == acl.ActionDrop
		if dropped {
			n++
		}
		if !t.attack {
			res.benignSent++
			if dropped {
				res.benignDropped++
			}
			continue
		}
		v := r.victims[t.dst]
		if v == nil {
			_, before := r.sc.prefillVictims[t.dst]
			v = &victim{
				fresh:       rounds && !before,
				onsetMinute: r.minute,
				flagged:     r.warmFlagged[t.dst],
			}
			r.victims[t.dst] = v
		}
		v.lastAttack = abs
		if v.flagged {
			res.attackSent++
			if dropped {
				res.attackDropped++
			}
		}
		if dropped && !v.detected {
			v.detected, v.dropMinute, v.dropOrdinal = true, r.minute, n
			if v.fresh {
				r.pending = append(r.pending, v)
			}
		}
	}
	return n
}

func (r *siteRunner) round(ctx context.Context) error {
	a0 := readAllocs()
	t0 := time.Now()
	round, err := r.sys.pipe.TrainRound(ctx, r.sys.clock.Now())
	took := time.Since(t0)
	a1 := readAllocs()
	if err != nil {
		return fmt.Errorf("bench: training round after minute %d: %w", r.minute, err)
	}
	if round.Skipped {
		r.res.roundsSkipped++
		return nil
	}
	ms := float64(took.Nanoseconds()) / 1e6
	r.res.roundMS = append(r.res.roundMS, ms)
	r.roundAfterMS[r.minute-1] = ms
	r.res.roundAllocMB = append(r.res.roundAllocMB, float64(a1.bytes-a0.bytes)/(1<<20))
	for _, a := range round.Flagged {
		if v := r.victims[a.As4()]; v != nil {
			v.flagged = true
		}
	}
	return nil
}

// finish turns the victim table into detection latencies. A fresh victim
// counts only if at least one training round followed its onset.
func (r *siteRunner) finish() {
	var keys [][4]byte
	for k := range r.victims {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return bytes.Compare(keys[i][:], keys[j][:]) < 0 })
	lastRound := r.nprocMinutes - r.nprocMinutes%r.spec.trainEvery
	for _, k := range keys {
		v := r.victims[k]
		if !v.fresh || v.onsetMinute >= lastRound {
			continue
		}
		r.res.freshVictims++
		if !v.detected || v.dropMinute >= r.nprocMinutes {
			r.res.missed++
			continue
		}
		wall := float64(v.dropWall.Sub(r.handedAt[v.onsetMinute]).Nanoseconds()) / 1e6
		r.res.detectSimMin = append(r.res.detectSimMin, float64(v.dropMinute-v.onsetMinute))
		r.res.detectWallMS = append(r.res.detectWallMS, wall)
		// Paired with the rounds this very episode waited for, the ratio
		// does not move when the host slows down for part of the run.
		var rounds float64
		for _, ms := range r.roundAfterMS[v.onsetMinute:v.dropMinute] {
			rounds += ms
		}
		if rounds > 0 {
			r.res.detectOverRounds = append(r.res.detectOverRounds, wall/rounds)
		}
	}
}

// siteCounters are the public counters the conservation identity and the
// per-layer ledger read, as of one quiescent point.
type siteCounters struct {
	scrape                               map[string]float64
	evaluated, dropped, swaps            uint64
	qBatches, qIn, qOut, qBlocked, qLost uint64
	balIn, balOut, balLate               uint64
	publishRetries                       uint64
}

func (r *siteRunner) snapshot() (*siteCounters, error) {
	m, err := r.sys.scrape()
	if err != nil {
		return nil, err
	}
	st := r.sys.drop.Stats()
	qs := r.sys.pipe.QueueStats()
	bs := r.sys.pipe.BalanceStats()
	return &siteCounters{
		scrape:    m,
		evaluated: st.Evaluated, dropped: st.Dropped, swaps: st.Swaps,
		qBatches: qs.BatchesIn.Load(), qIn: qs.RecordsIn.Load(), qOut: qs.RecordsOut.Load(),
		qBlocked: qs.BlockedPuts.Load(), qLost: qs.DroppedRecords.Load(),
		balIn: bs.In, balOut: bs.Out, balLate: bs.Late,
		publishRetries: r.sys.pipe.Writer().Retries.Load(),
	}, nil
}

const sflowLabel = `{proto="sflow"}`

// collect reads every public counter at the end of the run, checks the
// conservation identity across the hops on the timed region's deltas, and
// scores the final verdicts against generator ground truth.
func (r *siteRunner) collect(base *siteCounters) error {
	res, sys := r.res, r.sys
	end, err := r.snapshot()
	if err != nil {
		return err
	}
	sc := func(name string) uint64 { return uint64(end.scrape[name] - base.scrape[name]) }
	samples := sc("ixps_collector_samples_total" + sflowLabel)
	records := sc("ixps_collector_records_total" + sflowLabel)
	evaluated := end.evaluated - base.evaluated
	dropped := end.dropped - base.dropped
	qIn, qOut := end.qIn-base.qIn, end.qOut-base.qOut
	balIn := end.balIn - base.balIn

	// The identity, from public counters only.
	switch {
	case samples != res.sentSamples:
		return fmt.Errorf("bench: conservation: sent %d samples, collector counted %d", res.sentSamples, samples)
	case records != evaluated:
		return fmt.Errorf("bench: conservation: collector emitted %d records, drop stage evaluated %d", records, evaluated)
	case evaluated != dropped+qIn:
		return fmt.Errorf("bench: conservation: evaluated %d != dropped %d + queued %d", evaluated, dropped, qIn)
	case qOut != balIn:
		return fmt.Errorf("bench: conservation: queue handed out %d records, balancer saw %d", qOut, balIn)
	}
	res.lost = sc("ixps_collector_truncated_total"+sflowLabel) +
		sc("ixps_collector_malformed_total"+sflowLabel) +
		sc("ixps_collector_panics_total"+sflowLabel) +
		(end.qLost - base.qLost) + (end.balLate - base.balLate) +
		(res.sentSamples - samples)

	c := res.counters
	c["sflow.datagrams"] = float64(sc("ixps_collector_datagrams_total" + sflowLabel))
	c["sflow.samples"] = float64(samples)
	c["sflow.malformed"] = float64(sc("ixps_collector_malformed_total"+sflowLabel) + sc("ixps_collector_truncated_total"+sflowLabel))
	c["sflow.reader_blocked_share"] = ratio(res.blockedSec, res.ingestWallSec)
	c["bgp.label_calls"] = float64(records)
	c["bgp.label_hit_share"] = ratio(float64(sc("ixps_collector_blackholed_total"+sflowLabel)), float64(records))
	c["bgp.prefixes"] = float64(sys.registry.PrefixCount())
	c["dropper.evaluated"] = float64(evaluated)
	c["dropper.dropped"] = float64(dropped)
	c["dropper.hit_share"] = ratio(float64(dropped), float64(evaluated))
	c["dropper.rules"] = float64(sys.drop.Program().Len())
	c["dropper.swaps"] = float64(end.swaps - base.swaps)
	c["queue.batches"] = float64(end.qBatches - base.qBatches)
	c["queue.blocked_puts"] = float64(end.qBlocked - base.qBlocked)
	c["queue.dropped_records"] = float64(end.qLost - base.qLost)
	c["queue.depth_max"] = float64(sys.depthMax)
	c["balance.in"] = float64(balIn)
	c["balance.kept"] = float64(end.balOut - base.balOut)
	c["balance.kept_share"] = ratio(float64(end.balOut-base.balOut), float64(balIn))
	c["balance.late"] = float64(end.balLate - base.balLate)
	c["segment.batches"] = float64(sc(`ixps_segment_batches_total{segment="2:scrubber"}`))
	c["segment.panics"] = float64(sc(`ixps_segment_panics_total{segment="1:sflow"}`) + sc(`ixps_segment_panics_total{segment="2:scrubber"}`))
	c["pipeline.settle_wait_share"] = ratio(res.settleWaitSec, res.ingestWallSec)
	c["pipeline.window_records"] = float64(res.windowRecords)
	c["pipeline.rounds"] = float64(len(res.roundMS))
	c["pipeline.rounds_skipped"] = float64(res.roundsSkipped)
	c["acl.entries"] = float64(sys.drop.Program().Len())
	c["acl.publish_retries"] = float64(end.publishRetries - base.publishRetries)
	c["obs.scrape_ms"] = median(res.scrapeMS)
	c["obs.series"] = float64(len(end.scrape))

	// Flagged-target F1 against generator ground truth: every address
	// attacked inside the window the final round trained on.
	cutoff := sys.clock.Now()/60 - int64(r.spec.window/time.Minute)
	attacked := map[[4]byte]bool{}
	for k, last := range r.sc.prefillVictims {
		if last >= cutoff {
			attacked[k] = true
		}
	}
	for k, v := range r.victims {
		if v.lastAttack >= cutoff {
			attacked[k] = true
		}
	}
	res.f1 = f1Score(res.flagged, func(a netip.Addr) bool { return attacked[a.As4()] }, len(attacked))
	return nil
}

// f1Score scores flagged targets against a ground-truth set of the given
// size.
func f1Score(flagged []netip.Addr, attacked func(netip.Addr) bool, positives int) float64 {
	tp := 0
	for _, a := range flagged {
		if attacked(a) {
			tp++
		}
	}
	if tp == 0 {
		return 0
	}
	p := float64(tp) / float64(len(flagged))
	rc := float64(tp) / float64(positives)
	return 2 * p * rc / (p + rc)
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
