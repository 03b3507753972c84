package main

import (
	"encoding/json"
	"strings"
)

// metricKind says how -selfcheck compares two runs of the same code.
type metricKind int

const (
	timing  metricKind = iota // wall-clock derived: must agree within its bound
	exact                     // a pure function of the script: must repeat exactly
	counter                   // read from a module's public stats: must repeat exactly
	noisy                     // runtime-dependent count (GC cycles, queue depth): reported, not compared
)

// metricDef declares one metric the benchmark emits. BENCHMARK.json lists
// the same names, units and bounds; the smoke test keeps the two in step.
type metricDef struct {
	name, unit, better string
	bound              float64 // share of the parent's median a metric may worsen by
	kind               metricKind
	help               string
}

// endToEnd are the metrics every workload measures on the untraced
// production assembly (-trace 0).
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25, timing, "generation, datagram encoding, window pre-fill, warm-model training; median of the run's set-ups"},
	{"ingest_records_per_s", "1/s", "higher", 0.20, timing, "samples settled ÷ wall from first datagram handed to the socket to settle, per simulated minute at GOMAXPROCS=nproc; median over the minutes"},
	{"ingest_records_per_s_1p", "1/s", "higher", 0.25, timing, "the same at GOMAXPROCS=1, in round-less passes after the others"},
	{"ingest_allocs_per_record", "1/record", "lower", 0.10, timing, "heap objects allocated inside the timed ingest windows ÷ samples"},
	{"train_round_ms_p50", "ms", "lower", 0.25, timing, "wall of Pipeline.TrainRound, median (federated-3site: per cadence tick, mean over the sites)"},
	{"train_round_ms_p75", "ms", "lower", 0.25, timing, "wall of Pipeline.TrainRound, 75th percentile"},
	{"train_alloc_mb_per_round", "MB", "lower", 0.25, timing, "bytes allocated across a round, mean (pooled scratch buffers make single rounds bimodal)"},
	{"live_heap_mb", "MB", "lower", 0.25, timing, "HeapAlloc after runtime.GC() at the end of the script, net of the benchmark's own inputs"},
}

// perLayer are the metrics of single layers (-trace 1): counters read from
// each module's public stats on a production-assembly run, timings from
// the traced staged replica, and the workload-specific end-to-end metrics:
// the driver bounds only what every workload reports, so these are held by
// the output check's gates (workloads.go) instead.
var perLayer = []metricDef{
	// End-to-end metrics that exist on some workloads only, or are 0.
	{"ingest_loss_share", "share", "lower", 0, exact, "lost samples ÷ samples sent (also the result's failed ÷ attempted); any loss fails the run"},
	{"detect_wall_ms_p50", "ms", "lower", 0, timing, "per fresh episode: last datagram of the onset minute handed over → first record toward the victim dropped"},
	{"detect_wall_ms_p75", "ms", "lower", 0, timing, "75th percentile of the same"},
	{"detect_sim_minutes", "min", "lower", 0, exact, "mean simulated minutes from ground-truth onset to the minute of the first dropped record"},
	{"attack_drop_share", "share", "higher", 0, exact, "dropped attack records ÷ attack records sent after their victim's first flagging round"},
	{"benign_drop_share", "share", "lower", 0, exact, "dropped benign records ÷ benign records sent"},
	{"cluster_minute_ms_p50", "ms", "lower", 0, timing, "wall of Cluster.Step, median"},
	{"gossip_round_ms_p50", "ms", "lower", 0, timing, "wall of Cluster.Gossip, median"},

	{"synth.generate_s", "s", "lower", 0, timing, "GenerateMinute over history and script"},
	{"synth.encode_s", "s", "lower", 0, timing, "FrameFor + sflow.Append over the script"},
	{"synth.datagrams", "count", "higher", 0, exact, "datagrams in the script"},
	{"synth.samples", "count", "higher", 0, exact, "samples in the script"},

	{"sflow.datagrams", "count", "higher", 0, counter, "CollectorStats.Datagrams"},
	{"sflow.samples", "count", "higher", 0, counter, "CollectorStats.Samples"},
	{"sflow.malformed", "count", "lower", 0, counter, "CollectorStats.Truncated + DecodeErrs"},
	{"sflow.decode_ns_per_sample", "ns", "lower", 0, timing, "sflow.DecodeInto self time ÷ samples"},
	{"sflow.to_record_ns_per_sample", "ns", "lower", 0, timing, "Collector.SampleToRecord self time ÷ samples"},
	{"sflow.allocs_per_datagram", "1/datagram", "lower", 0, exact, "heap objects per DecodeInto + SampleToRecord of one datagram"},
	{"sflow.reader_blocked_share", "share", "lower", 0, timing, "collector blocked in the socket's ReadFrom ÷ ingest wall"},

	{"bgp.label_calls", "count", "higher", 0, counter, "labelled records (CollectorStats.Records)"},
	{"bgp.label_ns_per_call", "ns", "lower", 0, timing, "Registry.Covered self time ÷ calls"},
	{"bgp.label_hit_share", "share", "higher", 0, counter, "CollectorStats.Blackholed ÷ Records"},
	{"bgp.prefixes", "count", "higher", 0, counter, "Registry.PrefixCount"},

	{"dropper.evaluated", "count", "higher", 0, counter, "Stage.Stats().Evaluated"},
	{"dropper.dropped", "count", "higher", 0, counter, "Stage.Stats().Dropped"},
	{"dropper.hit_share", "share", "higher", 0, counter, "Dropped ÷ Evaluated"},
	{"dropper.rules", "count", "lower", 0, counter, "rules in the live program at the end"},
	{"dropper.swaps", "count", "higher", 0, counter, "Stage.Stats().Swaps"},
	{"dropper.match_ns_per_record", "ns", "lower", 0, timing, "Stage.EmitBatch self time ÷ records"},
	{"dropper.compile_ms", "ms", "lower", 0, timing, "FromEntries + Compile, median per round"},
	{"dropper.swap_us", "us", "lower", 0, timing, "Stage.Swap, median per round"},

	{"queue.batches", "count", "higher", 0, counter, "QueueStats.BatchesIn"},
	{"queue.blocked_puts", "count", "lower", 0, noisy, "QueueStats.BlockedPuts"},
	{"queue.dropped_records", "count", "lower", 0, counter, "QueueStats.DroppedRecords"},
	{"queue.put_get_ns_per_record", "ns", "lower", 0, timing, "Queue.Put + Get self time ÷ records"},
	{"queue.depth_max", "count", "lower", 0, noisy, "deepest RecordsIn − RecordsOut seen at a settle poll"},

	{"balance.in", "count", "higher", 0, counter, "BalanceStats.In"},
	{"balance.kept", "count", "higher", 0, counter, "BalanceStats.Out"},
	{"balance.kept_share", "share", "lower", 0, counter, "Out ÷ In"},
	{"balance.late", "count", "lower", 0, counter, "BalanceStats.Late"},
	{"balance.add_ns_per_record", "ns", "lower", 0, timing, "Balancer.AddBatch self time ÷ records (includes the bin flush a new minute triggers)"},
	{"balance.flush_ms", "ms", "lower", 0, timing, "Balancer.Flush at a round, median"},

	{"segment.hop_ns_per_record", "ns", "lower", 0, timing, "Pipeline.Feed minus direct Pipeline.EmitBatch, per record"},
	{"segment.batches", "count", "higher", 0, counter, "ixps_segment_batches_total at the scrubber segment"},
	{"segment.panics", "count", "lower", 0, counter, "ixps_segment_panics_total"},

	{"pipeline.overlap_ratio", "ratio", "higher", 0, timing, "production ingest rate ÷ staged single-goroutine ingest rate"},
	{"pipeline.settle_wait_share", "share", "lower", 0, timing, "driver waiting for settle after the last datagram ÷ ingest wall"},
	{"pipeline.window_records", "count", "lower", 0, counter, "window size of the last round"},
	{"pipeline.snapshot_ms", "ms", "lower", 0, timing, "Pipeline.WindowRecords"},
	{"pipeline.checkpoint_ms", "ms", "lower", 0, timing, "Pipeline.SaveCheckpoint"},
	{"pipeline.checkpoint_bytes", "bytes", "lower", 0, counter, "size of the checkpoint file"},
	{"pipeline.rounds", "count", "higher", 0, counter, "training rounds in the timed region"},
	{"pipeline.rounds_skipped", "count", "lower", 0, counter, "rounds skipped for lack of records"},

	{"tagging.mine_ms", "ms", "lower", 0, timing, "Scrubber.MineRules, median per round"},
	{"tagging.transactions", "count", "higher", 0, counter, "MiningReport.Transactions of the last round"},
	{"tagging.rules_mined", "count", "higher", 0, counter, "MiningReport.RulesBlackhole of the last round"},
	{"tagging.rules_minimized", "count", "higher", 0, counter, "MiningReport.RulesMinimized of the last round"},

	{"features.aggregate_ms", "ms", "lower", 0, timing, "Scrubber.Aggregate, median per round"},
	{"features.ns_per_record", "ns", "lower", 0, timing, "Aggregate self time ÷ window records"},
	{"features.aggregates", "count", "higher", 0, counter, "aggregates of the last round"},

	{"core.fit_ms", "ms", "lower", 0, timing, "Scrubber.Fit as one span, median per round"},
	{"core.fit_allocs_mb", "MB", "lower", 0, timing, "bytes allocated across Fit, median"},

	{"woe.encode_ms", "ms", "lower", 0, timing, "Scrubber.EncodeFeatures, median per round"},
	{"woe.encode_ns_per_aggregate", "ns", "lower", 0, timing, "EncodeFeatures self time ÷ aggregates"},

	{"xgb.predict_ms", "ms", "lower", 0, timing, "Scrubber.PredictEncodedInto, median per round"},
	{"xgb.predict_ns_per_row", "ns", "lower", 0, timing, "PredictEncodedInto self time ÷ rows"},
	{"xgb.trees", "count", "lower", 0, counter, "trees of a standalone re-fit"},
	{"xgb.fit_ms_standalone", "ms", "lower", 0, timing, "xgb re-fit on the last encoded matrix, outside the sum"},

	{"acl.generate_ms", "ms", "lower", 0, timing, "GenerateACLs, median per round"},
	{"acl.render_ms", "ms", "lower", 0, timing, "RenderText, median per round"},
	{"acl.publish_ms", "ms", "lower", 0, timing, "Writer.Publish, median per round"},
	{"acl.entries", "count", "lower", 0, counter, "ACL entries of the last round"},
	{"acl.publish_retries", "count", "lower", 0, counter, "Writer.Retries"},

	{"registry.publish_ms", "ms", "lower", 0, timing, "Registry.Publish of the trained bundle into a scratch registry"},
	{"registry.promote_ms", "ms", "lower", 0, timing, "Registry.Promote"},
	{"registry.bundle_bytes", "bytes", "lower", 0, counter, "size of the trained bundle"},

	{"cluster.step_ms", "ms", "lower", 0, timing, "Cluster.Step self time per call"},
	{"cluster.train_all_ms", "ms", "lower", 0, timing, "all sites' rounds, per cadence tick"},
	{"cluster.gossip_ms", "ms", "lower", 0, timing, "Cluster.Gossip per round"},
	{"cluster.vet_ms", "ms", "lower", 0, timing, "VetBundle of a site's exported classifier"},
	{"cluster.receive_candidate_ms", "ms", "lower", 0, timing, "Site.ReceiveCandidate"},
	{"cluster.routed_records", "count", "higher", 0, counter, "Σ Site.Routed"},
	{"cluster.elections", "count", "higher", 0, counter, "Σ len(Site.Elections)"},
	{"cluster.promotions", "count", "higher", 0, counter, "elections won by an import"},

	{"obs.scrape_ms", "ms", "lower", 0, timing, "Registry.WritePrometheus, median"},
	{"obs.series", "count", "lower", 0, counter, "sample lines in one scrape"},

	{"runtime.gc_cycles", "count", "lower", 0, noisy, "GC cycles in the timed region"},
	{"runtime.gc_pause_ms", "ms", "lower", 0, timing, "stop-the-world pause total in the timed region"},
	{"runtime.heap_live_mb", "MB", "lower", 0, timing, "live heap at the end of the script"},
	{"runtime.goroutines", "count", "lower", 0, noisy, "goroutines at the end of the script"},

	{"trace.overhead_share", "share", "lower", 0, timing, "traced ÷ untraced wall of the staged ingest loop − 1, median over paired passes"},
	{"trace.unattributed_share", "share", "lower", 0, timing, "1 − Σ layer self time ÷ traced wall"},
}

// workloadDef names a workload and why it exists (one line, as in
// BENCHMARK.json, whose schema has no other place for the held-out seed).
type workloadDef struct{ name, why string }

var workloads = []workloadDef{
	{"ingest-flood", "benign-dominant, <1% of samples toward blackholed targets: decode, label miss, dropper miss, queue and balancer discard do the work, training almost none. Held-out seed: 7919."},
	{"attack-storm", ">50% of samples are attack flows toward ~200 flagged victims, drop program of thousands of entries: dropper hit path, label hits, balancer keep path, swap. Held-out seed: 7919."},
	{"retrain-cycle", "pre-filled window, a training round after every small minute: tagging, features, woe, xgb, acl, compile/swap do >90% of the wall, ingest <10%; carries detection latency. Held-out seed: 7919."},
	{"federated-3site", "the same pipeline reached through cluster.New with three sites, plus partition routing, registry publish/promote and classifier-only elections. Held-out seed: 7919."},
}

// heldOutSeed is the seed no number in this repository was tuned on; a
// claim made against the benchmark must also hold on it.
const heldOutSeed = 7919

// manifestJSON renders BENCHMARK.json from the declarations above, so the
// file at the repository root is generated, never edited:
//
//	go run ./bench -manifest > BENCHMARK.json
func manifestJSON() string {
	type bounded struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type unbounded struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	type workload struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	doc := struct {
		Command    []string    `json:"command"`
		Paths      []string    `json:"paths"`
		RunSeconds int         `json:"run_seconds"`
		Workloads  []workload  `json:"workloads"`
		EndToEnd   []bounded   `json:"end_to_end"`
		PerLayer   []unbounded `json:"per_layer"`
	}{
		Command:    []string{"go", "run", "./bench"},
		Paths:      []string{"bench"},
		RunSeconds: refSeconds,
	}
	for _, w := range workloads {
		doc.Workloads = append(doc.Workloads, workload{w.name, w.why})
	}
	for _, d := range endToEnd {
		doc.EndToEnd = append(doc.EndToEnd, bounded{d.name, d.unit, d.better, d.bound})
	}
	for _, d := range perLayer {
		doc.PerLayer = append(doc.PerLayer, unbounded{d.name, d.unit, d.better})
	}
	var b strings.Builder
	enc := json.NewEncoder(&b)
	enc.SetEscapeHTML(false)
	enc.SetIndent("", "  ")
	if err := enc.Encode(&doc); err != nil {
		panic(err)
	}
	return b.String()
}
