package main

import (
	"context"
	"fmt"
	"net/netip"
	"path/filepath"
	"sort"
	"time"

	"github.com/ixp-scrubber/ixpscrubber/internal/acl"
	"github.com/ixp-scrubber/ixpscrubber/internal/balance"
	"github.com/ixp-scrubber/ixpscrubber/internal/bgp"
	"github.com/ixp-scrubber/ixpscrubber/internal/core"
	"github.com/ixp-scrubber/ixpscrubber/internal/dropper"
	"github.com/ixp-scrubber/ixpscrubber/internal/netflow"
	"github.com/ixp-scrubber/ixpscrubber/internal/sflow"
	"github.com/ixp-scrubber/ixpscrubber/internal/tagging"
)

// batchDatagrams datagrams of samplesPerDatagram samples fill exactly one
// collector batch (sflow.DefaultBatchSize records).
const batchDatagrams = sflow.DefaultBatchSize / samplesPerDatagram

// staged is the staged replica: the same inputs pushed through the same
// public calls the production chain makes, wired by hand in one goroutine,
// with a span around every call. Because no file outside bench/ may
// change, this is where the per-layer split comes from; it is trusted only
// when its verdicts and ACL text digest equal the production run's.
type staged struct {
	rec  *recorder
	spec *siteSpec
	sc   *script

	now      int64
	registry *bgp.Registry
	conv     sflow.Collector // SampleToRecord only; labelling is spanned apart
	bufs     [batchDatagrams][]byte
	dgs      [batchDatagrams]sflow.Datagram
	batch    []netflow.Record
	stage    *dropper.Stage
	queue    *netflow.Queue
	bal      *balance.Balancer[netflow.Record]
	window   []netflow.Record
	model    *core.Scrubber
	writer   *acl.Writer
	aclPath  string
	pred     []int

	active []netip.Prefix
	minute int

	// What the run produced, for the equivalence check and the ledger.
	flagged    []netip.Addr
	aclDigest  uint64
	minuteRate []float64 // samples/s per simulated minute
	lastMine   tagging.MiningReport
	lastAggs   int
	lastX      [][]float64
	lastY      []int
	fitAllocMB []float64
}

func newStaged(spec *siteSpec, sc *script, seed uint64, dir string, rec *recorder) *staged {
	s := &staged{
		rec: rec, spec: spec, sc: sc,
		registry: bgp.NewRegistry(),
		batch:    make([]netflow.Record, 0, sflow.DefaultBatchSize),
		queue:    netflow.NewQueue(64, netflow.Block),
		model:    core.New(core.DefaultConfig()),
		writer:   &acl.Writer{},
		aclPath:  filepath.Join(dir, "acl.txt"),
	}
	for i := range s.bufs {
		s.bufs[i] = make([]byte, 65536)
	}
	s.bal = balance.ForRecords(seed, func(r netflow.Record) { s.window = append(s.window, r) })
	s.stage = dropper.NewStage(func(b []netflow.Record) {
		s.rec.begin("netflow.put")
		s.queue.Put(b)
		s.rec.end(len(b))
	})
	return s
}

// emit pushes one batch through drop stage → queue → balancer, as the
// collector's EmitBatch and the queue consumer do between them.
func (s *staged) emit(batch []netflow.Record) {
	rec := s.rec
	n := len(batch)
	rec.begin("dropper.match")
	s.stage.EmitBatch(batch)
	rec.end(n)
	if s.queue.Len() == 0 {
		return // the whole batch was dropped
	}
	rec.begin("netflow.get")
	b, _ := s.queue.Get(context.Background())
	rec.end(len(b))
	rec.begin("balance.add")
	s.bal.AddBatch(b)
	rec.end(len(b))
}

// ingestMinute decodes, converts, labels and emits one minute of datagrams
// batch by batch.
func (s *staged) ingestMinute(ms *minuteScript) {
	rec := s.rec
	at := s.now
	dgs := ms.datagrams
	for len(dgs) > 0 {
		n := batchDatagrams
		if n > len(dgs) {
			n = len(dgs)
		}
		group := dgs[:n]
		dgs = dgs[n:]

		rec.begin("transport.copy")
		for i, d := range group {
			s.bufs[i] = s.bufs[i][:cap(s.bufs[i])]
			s.bufs[i] = s.bufs[i][:copy(s.bufs[i], d)]
		}
		rec.end(n)

		rec.begin("sflow.decode")
		samples := 0
		for i := range group {
			if err := sflow.DecodeInto(&s.dgs[i], s.bufs[i]); err != nil {
				panic(fmt.Sprintf("bench: staged decode: %v", err))
			}
			samples += len(s.dgs[i].Samples)
		}
		rec.end(samples)

		rec.begin("sflow.to_record")
		s.batch = s.batch[:0]
		for i := range group {
			for j := range s.dgs[i].Samples {
				s.batch = s.batch[:len(s.batch)+1]
				if !s.conv.SampleToRecord(&s.dgs[i].Samples[j], at, &s.batch[len(s.batch)-1]) {
					s.batch = s.batch[:len(s.batch)-1]
				}
			}
		}
		rec.end(len(s.batch))

		rec.begin("bgp.label")
		for i := range s.batch {
			s.batch[i].Blackholed = s.registry.Covered(s.batch[i].DstIP, at)
		}
		rec.end(len(s.batch))

		s.emit(s.batch)
	}
}

func (s *staged) prefill() {
	first := int64(startMin - s.spec.prefillMin)
	for i, recs := range s.sc.prefill {
		at := (first + int64(i)) * 60
		s.now = at
		applyEvents(s.registry, s.sc.prefillEvents[i], at)
		// Pipeline.Feed hands the whole minute to the drop stage as one
		// batch; the stage compacts in place, so work on a copy.
		s.emit(append([]netflow.Record(nil), recs...))
	}
	s.now = startMin * 60
}

// round is TrainRound's call sequence, one span per call.
func (s *staged) round() error {
	rec := s.rec
	rec.setTrace(s.minute)
	rec.begin("bench.round")
	defer rec.end(0)

	rec.begin("balance.flush")
	s.bal.Flush()
	rec.end(0)

	rec.begin("ixpsim.snapshot")
	cutoff := s.now - int64(s.spec.window/time.Second)
	keep := s.window[:0]
	for _, r := range s.window {
		if r.Timestamp >= cutoff {
			keep = append(keep, r)
		}
	}
	s.window = keep
	records := append([]netflow.Record(nil), s.window...)
	rec.end(len(records))
	if len(records) < 100 {
		return fmt.Errorf("bench: staged round: window holds %d records", len(records))
	}

	rec.begin("tagging.mine")
	rep, err := s.model.MineRules(records)
	rec.end(len(records))
	if err != nil {
		return err
	}

	rec.begin("features.aggregate")
	aggs := s.model.Aggregate(records, nil)
	rec.end(len(records))

	a0 := readAllocs()
	rec.begin("core.fit")
	err = s.model.Fit(records, aggs)
	rec.end(len(aggs))
	if err != nil {
		return err
	}
	s.fitAllocMB = append(s.fitAllocMB, float64(readAllocs().bytes-a0.bytes)/(1<<20))

	rec.begin("woe.encode")
	x := s.model.EncodeFeatures(aggs)
	rec.end(len(aggs))

	if cap(s.pred) < len(x) {
		s.pred = make([]int, len(x))
	}
	pred := s.pred[:len(x)]
	rec.begin("xgb.predict")
	err = s.model.PredictEncodedInto(x, pred)
	rec.end(len(x))
	if err != nil {
		return err
	}

	rec.begin("acl.generate")
	set := map[netip.Addr]struct{}{}
	for i, a := range aggs {
		if pred[i] == 1 {
			set[a.Target] = struct{}{}
		}
	}
	targets := make([]netip.Addr, 0, len(set))
	for t := range set {
		targets = append(targets, t)
	}
	sort.Slice(targets, func(i, j int) bool { return targets[i].Compare(targets[j]) < 0 })
	entries := s.model.GenerateACLs(targets, acl.ActionDrop)
	rec.end(len(entries))

	rec.begin("acl.render")
	text := acl.RenderText(entries)
	rec.end(len(entries))

	rec.begin("acl.publish")
	err = s.writer.Publish(context.Background(), s.aclPath, []byte(text))
	rec.end(len(text))
	if err != nil {
		return err
	}

	rec.begin("dropper.compile")
	prog := dropper.Compile(dropper.FromEntries(entries))
	rec.end(len(entries))

	rec.begin("dropper.swap")
	s.stage.Swap(prog)
	rec.end(len(entries))

	s.flagged = targets
	s.aclDigest = netflow.FoldString(netflow.FNVOffset, text)
	s.lastMine, s.lastAggs, s.lastX = rep, len(aggs), x
	s.lastY = s.lastY[:0]
	for _, a := range aggs {
		y := 0
		if a.Label {
			y = 1
		}
		s.lastY = append(s.lastY, y)
	}
	return nil
}

// run replays the production run's schedule: history, warm round, the
// scripted passes with their lock-step rounds, the round-less passes of
// the 1-proc phase, and the final round.
func (s *staged) run() error {
	rec := s.rec
	// Set-up (history, warm round) is outside the traced wall, as it is
	// outside every clock of the production run.
	on := rec.on
	rec.on = false
	s.prefill()
	err := s.round()
	rec.on = on
	if err != nil {
		return err
	}
	s.active = s.registry.ActiveAt(startMin * 60)

	rec.begin("bench.run")
	defer rec.end(0)
	k := len(s.sc.minutes)
	for p := 0; p < s.spec.passes+s.spec.passesFlat+s.spec.passes1p; p++ {
		base := int64(startMin + p*k)
		if p > 0 {
			rewindBlackholes(s.registry, s.active, base*60)
		}
		for i := range s.sc.minutes {
			ms := &s.sc.minutes[i]
			s.now = (base + int64(i)) * 60
			applyEvents(s.registry, ms.events, s.now)
			rec.setTrace(s.minute)
			t0 := time.Now()
			rec.begin("bench.minute")
			s.ingestMinute(ms)
			rec.end(len(ms.truth))
			s.minuteRate = append(s.minuteRate, float64(len(ms.truth))/time.Since(t0).Seconds())
			s.minute++
			if p < s.spec.passes && s.minute%s.spec.trainEvery == 0 {
				if err := s.round(); err != nil {
					return err
				}
			}
		}
	}
	return s.round()
}

// tracingOverhead measures what the spans cost the ingest loop: the script
// is replayed past the end of the run in pairs of passes, one with a
// recorder that does not record and one with a recorder that does (which
// goes first alternates), and the median of the pairs' ratios is reported.
// The two passes of a pair share the replica's state and, a few
// milliseconds apart, the host's mood. Call it after the verdicts have been
// compared: it feeds the replica more traffic.
func (s *staged) tracingOverhead() float64 {
	saved := s.rec
	defer func() { s.rec = saved }()
	arms := [2]*recorder{newRecorder(false), newRecorder(true)}
	// About two million samples per arm, at least a dozen pairs.
	pairs := 2_000_000/s.sc.samples + 1
	if pairs < 12 {
		pairs = 12
	}
	if s.spec.smoke {
		pairs = 4
	}
	ratios := make([]float64, 0, pairs)
	for p := 0; p < pairs; p++ {
		var ns [2]float64
		for k := range arms {
			// Alternate which arm goes first, so drift within a pair (caches
			// warming, balancer bins growing as the clock advances) lands on
			// both sides of the ratio.
			arm := (k + p) % 2
			rec := arms[arm]
			s.rec = rec
			rec.spans = rec.spans[:0]
			t0 := time.Now()
			for i := range s.sc.minutes {
				s.now += 60
				s.ingestMinute(&s.sc.minutes[i])
			}
			ns[arm] = float64(time.Since(t0).Nanoseconds())
		}
		ratios = append(ratios, ns[1]/ns[0])
	}
	return median(ratios) - 1
}

// sameVerdicts reports whether the replica ended where the production run
// did: same flagged targets, same ACL text digest.
func (s *staged) sameVerdicts(res *siteResult) error {
	if s.aclDigest != res.aclDigest {
		return fmt.Errorf("bench: staged replica ACL digest %016x, production %016x", s.aclDigest, res.aclDigest)
	}
	if len(s.flagged) != len(res.flagged) {
		return fmt.Errorf("bench: staged replica flagged %d targets, production %d", len(s.flagged), len(res.flagged))
	}
	for i := range s.flagged {
		if s.flagged[i] != res.flagged[i] {
			return fmt.Errorf("bench: staged replica flagged %v where production flagged %v", s.flagged[i], res.flagged[i])
		}
	}
	return nil
}
