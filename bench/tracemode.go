package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"github.com/ixp-scrubber/ixpscrubber/internal/cluster"
	"github.com/ixp-scrubber/ixpscrubber/internal/ml"
	"github.com/ixp-scrubber/ixpscrubber/internal/ml/xgb"
	"github.com/ixp-scrubber/ixpscrubber/internal/netflow"
	modelreg "github.com/ixp-scrubber/ixpscrubber/internal/registry"
	"github.com/ixp-scrubber/ixpscrubber/internal/sflow"
)

// traceShare is how much shorter the traced runs are than the end-to-end
// run of the same -seconds.
const traceShare = 0.25

// Validity limits of a traced run.
const (
	maxUnattributed  = 0.05
	maxTraceOverhead = 0.10
	maxReaderBlocked = 0.20
)

// layerRun is what a -trace 1 invocation produced for one workload.
type layerRun struct {
	metrics  map[string]float64
	samples  map[string]int // per-metric sample counts, where a metric is a median
	rec      *recorder
	attempts uint64
	lost     uint64
}

// perUnit is the named spans' Σ self time ÷ the first one's Σ count, in ns.
func perUnit(rows map[string]*ledgerRow, names ...string) float64 {
	var self, count int64
	for _, n := range names {
		if r := rows[n]; r != nil {
			self += r.self
			if n == names[0] {
				count = r.count
			}
		}
	}
	return ratio(float64(self), float64(count))
}

// traceSite produces the per-layer metrics of a single-site workload: a
// (shorter) production-assembly run for the counters, the staged replica
// untraced and traced for the layer timings, and the out-of-band probes.
func traceSite(spec *siteSpec, seed uint64, dir string, out io.Writer) (*layerRun, error) {
	r, err := startSite(spec, seed, filepath.Join(dir, "production"), 1, true)
	if err != nil {
		return nil, err
	}
	defer r.close()
	if err := r.execute(); err != nil {
		return nil, err
	}
	res := r.res
	lr := &layerRun{metrics: map[string]float64{}, samples: map[string]int{}, attempts: res.sentSamples, lost: res.lost}
	m := lr.metrics
	for k, v := range res.counters {
		m[k] = v
	}
	siteEndToEnd(res, m, lr.samples)
	m["synth.generate_s"], m["synth.encode_s"] = res.generateSec, res.encodeSec
	m["synth.datagrams"], m["synth.samples"] = float64(res.datagrams), float64(res.samples)

	// Probes on the live production system, after its run.
	t0 := time.Now()
	r.sys.pipe.WindowRecords()
	m["pipeline.snapshot_ms"] = msSince(t0)
	if spec.checkpoint {
		t0 = time.Now()
		if err := r.sys.pipe.SaveCheckpoint(context.Background()); err != nil {
			return nil, err
		}
		m["pipeline.checkpoint_ms"] = msSince(t0)
		info, err := os.Stat(r.sys.checkpointPath())
		if err != nil {
			return nil, err
		}
		m["pipeline.checkpoint_bytes"] = float64(info.Size())
	}
	hop, err := probeSegmentHop(spec, seed, filepath.Join(dir, "hop"), r.sc)
	if err != nil {
		return nil, err
	}
	m["segment.hop_ns_per_record"] = hop

	// The staged replica, untraced then traced, over the same script.
	var untracedRate float64 // the replica's single-goroutine ingest rate, median per minute
	var st *staged
	for i, on := range []bool{false, true} {
		rec := newRecorder(on)
		st = newStaged(spec, r.sc, seed, filepath.Join(dir, fmt.Sprintf("staged-%d", i)), rec)
		if err := os.MkdirAll(filepath.Dir(st.aclPath), 0o755); err != nil {
			return nil, err
		}
		if err := st.run(); err != nil {
			return nil, err
		}
		if !on {
			untracedRate = median(st.minuteRate)
		}
		if err := st.sameVerdicts(res); err != nil {
			return nil, err
		}
		lr.rec = rec
	}
	rec := lr.rec
	rows := rec.ledger()
	m["trace.unattributed_share"] = rec.unattributed()
	m["pipeline.overlap_ratio"] = ratio(median(res.rate), untracedRate)

	m["sflow.decode_ns_per_sample"] = perUnit(rows, "sflow.decode")
	m["sflow.to_record_ns_per_sample"] = perUnit(rows, "sflow.to_record")
	m["bgp.label_ns_per_call"] = perUnit(rows, "bgp.label")
	m["dropper.match_ns_per_record"] = perUnit(rows, "dropper.match")
	m["queue.put_get_ns_per_record"] = perUnit(rows, "netflow.put", "netflow.get")
	m["balance.add_ns_per_record"] = perUnit(rows, "balance.add")
	m["features.ns_per_record"] = perUnit(rows, "features.aggregate")
	m["woe.encode_ns_per_aggregate"] = perUnit(rows, "woe.encode")
	m["xgb.predict_ns_per_row"] = perUnit(rows, "xgb.predict")
	for metric, name := range map[string]string{
		"dropper.compile_ms":    "dropper.compile",
		"balance.flush_ms":      "balance.flush",
		"tagging.mine_ms":       "tagging.mine",
		"features.aggregate_ms": "features.aggregate",
		"core.fit_ms":           "core.fit",
		"woe.encode_ms":         "woe.encode",
		"xgb.predict_ms":        "xgb.predict",
		"acl.generate_ms":       "acl.generate",
		"acl.render_ms":         "acl.render",
		"acl.publish_ms":        "acl.publish",
	} {
		xs := rec.selfMS(name)
		m[metric] = median(xs)
		lr.samples[metric] = len(xs)
	}
	swaps := rec.selfMS("dropper.swap")
	m["dropper.swap_us"] = median(swaps) * 1e3
	lr.samples["dropper.swap_us"] = len(swaps)
	m["core.fit_allocs_mb"] = median(st.fitAllocMB)
	m["tagging.transactions"] = float64(st.lastMine.Transactions)
	m["tagging.rules_mined"] = float64(st.lastMine.RulesBlackhole)
	m["tagging.rules_minimized"] = float64(st.lastMine.RulesMinimized)
	m["features.aggregates"] = float64(st.lastAggs)

	m["sflow.allocs_per_datagram"] = probeDecodeAllocs(r.sc)
	if err := probeModel(st, filepath.Join(dir, "registry"), m); err != nil {
		return nil, err
	}
	m["trace.overhead_share"] = st.tracingOverhead() // last: it feeds the replica more traffic

	// Validity of the traced run. A smoke run is too short for the two
	// limits that compare wall times to mean anything (and it runs beside
	// the rest of `go test ./...`).
	switch {
	case m["trace.unattributed_share"] > maxUnattributed:
		return nil, fmt.Errorf("bench: %.1f%% of the traced wall is unattributed (limit %.0f%%)", 100*m["trace.unattributed_share"], 100*maxUnattributed)
	case spec.smoke:
	case m["trace.overhead_share"] > maxTraceOverhead:
		return nil, fmt.Errorf("bench: tracing overhead %.1f%% (limit %.0f%%)", 100*m["trace.overhead_share"], 100*maxTraceOverhead)
	case m["sflow.reader_blocked_share"] > maxReaderBlocked:
		return nil, fmt.Errorf("bench: collector blocked on the socket %.0f%% of the ingest wall: the generator, not the system, is the bottleneck", 100*m["sflow.reader_blocked_share"])
	}
	rec.printLedger(out)
	return lr, nil
}

func msSince(t time.Time) float64 { return float64(time.Since(t).Nanoseconds()) / 1e6 }

// siteEndToEnd fills the workload-specific end-to-end metrics of a
// single-site run.
func siteEndToEnd(res *siteResult, m map[string]float64, n map[string]int) {
	m["ingest_loss_share"] = ratio(float64(res.lost), float64(res.sentSamples))
	m["detect_wall_ms_p50"] = orZero(median(res.detectWallMS))
	m["detect_wall_ms_p75"] = orZero(quantile(res.detectWallMS, 0.75))
	m["detect_sim_minutes"] = orZero(mean(res.detectSimMin))
	n["detect_wall_ms_p50"], n["detect_wall_ms_p75"], n["detect_sim_minutes"] = len(res.detectWallMS), len(res.detectWallMS), len(res.detectSimMin)
	m["attack_drop_share"] = ratio(float64(res.attackDropped), float64(res.attackSent))
	m["benign_drop_share"] = ratio(float64(res.benignDropped), float64(res.benignSent))
}

// federatedEndToEnd fills the workload-specific end-to-end metrics of a
// federated-3site run.
func federatedEndToEnd(res *fedResult, m map[string]float64, n map[string]int) {
	m["ingest_loss_share"] = ratio(float64(res.lost), float64(res.routed))
	m["cluster_minute_ms_p50"], n["cluster_minute_ms_p50"] = median(res.stepMS), len(res.stepMS)
	m["gossip_round_ms_p50"], n["gossip_round_ms_p50"] = median(res.gossipMS), len(res.gossipMS)
}

func orZero(x float64) float64 {
	if x != x { // NaN: no sample
		return 0
	}
	return x
}

// probeDecodeAllocs counts heap objects per DecodeInto + SampleToRecord of
// one datagram, after a warm-up pass.
func probeDecodeAllocs(sc *script) float64 {
	var d sflow.Datagram
	var conv sflow.Collector
	var rec netflow.Record
	dgs := sc.minutes[0].datagrams
	pass := func() {
		for _, data := range dgs {
			if sflow.DecodeInto(&d, data) == nil {
				for i := range d.Samples {
					conv.SampleToRecord(&d.Samples[i], 0, &rec)
				}
			}
		}
	}
	pass()
	a0 := readAllocs()
	pass()
	return float64(readAllocs().objects-a0.objects) / float64(len(dgs))
}

// probeSegmentHop measures what the segment layer adds per record: the
// script's first minute, as pre-built batches, alternately through
// Pipeline.Feed (the instrumented segment hops) and straight into the
// detection pipeline's EmitBatch on the same assembly. The true figure is
// a fraction of a nanosecond; the probe mostly bounds it.
func probeSegmentHop(spec *siteSpec, seed uint64, dir string, sc *script) (float64, error) {
	var batches [][]netflow.Record
	ms := &sc.minutes[0]
	rate := sc.profile.SamplingRate
	for i := 0; i < len(ms.truth); i += sflow.DefaultBatchSize {
		end := i + sflow.DefaultBatchSize
		if end > len(ms.truth) {
			end = len(ms.truth)
		}
		b := make([]netflow.Record, 0, end-i)
		for j := i; j < end; j++ {
			b = append(b, ms.truth[j].record(rate))
		}
		batches = append(batches, b)
	}
	sys, err := assembleSite(spec, seed, dir)
	if err != nil {
		return 0, err
	}
	defer sys.close()
	reps := 32
	if spec.smoke {
		reps = 4
	}
	var feedNS, directNS []float64
	scratch := make([]netflow.Record, sflow.DefaultBatchSize)
	for rep := 0; rep < reps; rep++ {
		direct := rep%2 == 1
		at := int64(startMin+rep) * 60 // a new minute bin per repetition
		t0 := time.Now()
		var n uint64
		for _, b := range batches {
			// The drop stage compacts in place: hand it a copy, in both arms.
			c := scratch[:copy(scratch, b)]
			for i := range c {
				c[i].Timestamp = at
			}
			if direct {
				sys.pipe.EmitBatch(c)
			} else {
				sys.seg.Feed(c)
			}
			n += uint64(len(b))
		}
		sys.sent += n
		if _, err := sys.settle(nil); err != nil {
			return 0, err
		}
		ns := float64(time.Since(t0).Nanoseconds()) / float64(n)
		if direct {
			directNS = append(directNS, ns)
		} else {
			feedNS = append(feedNS, ns)
		}
	}
	// Best of N per arm: everything downstream of the hop is shared, and
	// interference only ever adds.
	if d := quantile(feedNS, 0) - quantile(directNS, 0); d > 0 {
		return d, nil
	}
	return 0, nil
}

// probeModel times what sits beside the round on the trained model:
// registry publish/promote of its bundle into a scratch registry, and an
// xgb re-fit on the last encoded matrix (to size xgb's share of
// core.fit_ms; it is outside the ledger's sum).
func probeModel(st *staged, dir string, m map[string]float64) error {
	var bundle bytes.Buffer
	if err := st.model.Save(&bundle); err != nil {
		return err
	}
	reg, err := modelreg.Open(dir, modelreg.Options{})
	if err != nil {
		return err
	}
	ctx := context.Background()
	t0 := time.Now()
	man, err := reg.Publish(ctx, bundle.Bytes(), modelreg.Meta{})
	if err != nil {
		return err
	}
	m["registry.publish_ms"] = msSince(t0)
	t0 = time.Now()
	if err := reg.Promote(ctx, man.ID); err != nil {
		return err
	}
	m["registry.promote_ms"] = msSince(t0)
	m["registry.bundle_bytes"] = float64(bundle.Len())

	// The pipeline core builds for XGB: variance filter, imputer, trees.
	opts := xgb.DefaultOptions()
	opts.MaxDepth = 8
	model := xgb.New(opts)
	pipe := &ml.Pipeline{
		Stages: []ml.Transformer{&ml.VarianceThreshold{Min: 1e-12}, &ml.Imputer{Value: -1}},
		Model:  model,
	}
	t0 = time.Now()
	if err := pipe.Fit(st.lastX, st.lastY); err != nil {
		return err
	}
	m["xgb.fit_ms_standalone"] = msSince(t0)
	m["xgb.trees"] = float64(model.NumTrees())
	return nil
}

// traceFederated produces the per-layer metrics of federated-3site: one
// run with a span around every public call into the cluster (the spans
// wrap whole Step / TrainSites / Gossip calls, so tracing costs two clock
// reads per millisecond-scale call), plus the bundle-path probes.
func traceFederated(spec *fedSpec, seed uint64, dir string, out io.Writer) (*layerRun, error) {
	rec := newRecorder(true)
	res, sys, err := runFederated(spec, seed, filepath.Join(dir, "production"), 1, rec)
	if err != nil {
		return nil, err
	}
	defer sys.close()
	lr := &layerRun{metrics: map[string]float64{}, samples: map[string]int{}, rec: rec, attempts: res.routed, lost: res.lost}
	m := lr.metrics
	for k, v := range res.counters {
		m[k] = v
	}
	federatedEndToEnd(res, m, lr.samples)
	m["cluster.step_ms"] = median(res.stepMS)
	m["cluster.train_all_ms"] = median(res.trainAllMS)
	m["cluster.gossip_ms"] = median(res.gossipMS)
	lr.samples["cluster.step_ms"], lr.samples["cluster.train_all_ms"], lr.samples["cluster.gossip_ms"] = len(res.stepMS), len(res.trainAllMS), len(res.gossipMS)
	m["trace.unattributed_share"] = rec.unattributed()

	// Bundle-path probes against site 0, with site 1's exported classifier.
	sites := sys.c.Sites()
	id := sites[1].Registry().ChampionID()
	bundle, err := sites[1].Registry().ExportClassifier(id)
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	if _, err := cluster.VetBundle(bundle); err != nil {
		return nil, err
	}
	m["cluster.vet_ms"] = msSince(t0)
	t0 = time.Now()
	if _, err := sites[0].ReceiveCandidate(1, bundle); err != nil {
		return nil, err
	}
	m["cluster.receive_candidate_ms"] = msSince(t0)
	full, err := fullBundle(sites[0])
	if err != nil {
		return nil, err
	}
	scratch, err := modelreg.Open(filepath.Join(dir, "registry"), modelreg.Options{})
	if err != nil {
		return nil, err
	}
	ctx := context.Background()
	t0 = time.Now()
	man, err := scratch.Publish(ctx, full, modelreg.Meta{})
	if err != nil {
		return nil, err
	}
	m["registry.publish_ms"] = msSince(t0)
	t0 = time.Now()
	if err := scratch.Promote(ctx, man.ID); err != nil {
		return nil, err
	}
	m["registry.promote_ms"] = msSince(t0)
	m["registry.bundle_bytes"] = float64(len(full))

	if m["trace.unattributed_share"] > maxUnattributed {
		return nil, fmt.Errorf("bench: %.1f%% of the traced wall is unattributed (limit %.0f%%)", 100*m["trace.unattributed_share"], 100*maxUnattributed)
	}
	rec.printLedger(out)
	return lr, nil
}

// fullBundle serialises a site's trainer as a full bundle.
func fullBundle(site *cluster.Site) ([]byte, error) {
	var buf bytes.Buffer
	if err := site.Pipeline().Scrubber().Save(&buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}
