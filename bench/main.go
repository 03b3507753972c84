// Command bench is the repository's benchmark: it drives fixed, seeded
// workloads through the production assembly (segment.New with an
// sflow → scrubber chain; cluster.New for the federated one), prints every
// metric by name with its unit, verifies the outputs, and writes one result
// file per run. See README.md in this directory and BENCHMARK.json at the
// repository root.
//
//	go run ./bench -workload ingest-flood -seed 1 -seconds 10 -trace 0
//	go run ./bench -workload retrain-cycle -trace 1
//	go run ./bench                      # every workload, end-to-end metrics
//	go run ./bench -selfcheck           # the full set twice, compared
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"maps"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
)

func main() {
	var (
		workloadFlag = flag.String("workload", "", "comma-separated workloads to run (default: all): "+strings.Join(workloadNames(), ", "))
		seedFlag     = flag.Int64("seed", 1, "traffic seed; threads through every generator and balancer seed")
		seconds      = flag.Float64("seconds", refSeconds, "run length the fixed scripts are scaled to")
		trace        = flag.Int("trace", 0, "0: end-to-end metrics from the untraced production assembly; 1: per-layer metrics from the traced run")
		outDir       = flag.String("out", filepath.Join("bench", "out"), "directory for result and trace files")
		selfcheck    = flag.Bool("selfcheck", false, "run the full set twice on this binary and compare")
		manifest     = flag.Bool("manifest", false, "print BENCHMARK.json as the declarations in spec.go have it, and exit")
	)
	flag.Parse()
	runtime.GOMAXPROCS(nproc)
	if *manifest {
		fmt.Print(manifestJSON())
		return
	}

	names, err := selectWorkloads(*workloadFlag)
	if err == nil && (*trace != 0 && *trace != 1 || *seconds <= 0) {
		err = fmt.Errorf("bench: -trace is 0 or 1, -seconds is positive")
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	// Generator seeds are spread as base + 90·seed (see profileSeed); fold
	// the flag into 32 bits so that never wraps.
	seed := uint64(*seedFlag) & (1<<32 - 1)
	cfg := runConfig{seed: seed, seconds: *seconds, outDir: *outDir}
	if *selfcheck {
		if err := runSelfcheck(names, cfg, os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}
	for _, name := range names {
		out, err := runWorkload(name, cfg, *trace == 1, os.Stdout)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: %v\n", name, err)
			os.Exit(1)
		}
		// The machine-readable result: the last line of standard output.
		fmt.Println(out.resultLine())
	}
}

func workloadNames() []string {
	out := make([]string, len(workloads))
	for i, w := range workloads {
		out[i] = w.name
	}
	return out
}

func selectWorkloads(arg string) ([]string, error) {
	if arg == "" {
		return workloadNames(), nil
	}
	var out []string
	for _, name := range strings.Split(arg, ",") {
		known := false
		for _, w := range workloads {
			known = known || w.name == name
		}
		if !known {
			return nil, fmt.Errorf("bench: unknown workload %q (known: %s)", name, strings.Join(workloadNames(), ", "))
		}
		out = append(out, name)
	}
	return out, nil
}

type runConfig struct {
	seed    uint64
	seconds float64
	outDir  string
}

// runOutput is one run's metrics: the declared set for its mode (what the
// result line carries) and, on an end-to-end run, the workload-specific
// end-to-end metrics measured along the way.
type runOutput struct {
	Workload  string             `json:"workload"`
	Seed      uint64             `json:"seed"`
	Trace     int                `json:"trace"`
	Seconds   float64            `json:"seconds"`
	Env       envInfo            `json:"env"`
	Attempted uint64             `json:"attempted"`
	Failed    uint64             `json:"failed"`
	Metrics   map[string]float64 `json:"metrics"`
	Extra     map[string]float64 `json:"workload_specific,omitempty"`
	Samples   map[string]int     `json:"sample_counts"`
	Checks    map[string]float64 `json:"output_checks"`
	WallSec   float64            `json:"wall_s"`
	// Counters are the module counters read on this run (the per-layer
	// metrics marked counter), whatever the mode.
	Counters map[string]float64 `json:"counters,omitempty"`
	// Series are the raw samples behind the medians, in script order.
	Series map[string][]float64 `json:"series,omitempty"`

	declared []metricDef
}

// envInfo records what the numbers were taken on.
type envInfo struct {
	Cores      int    `json:"cores"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	CPUModel   string `json:"cpu_model"`
	Transport  string `json:"transport"`
	Loop       string `json:"loop"`
}

func environment() envInfo {
	return envInfo{
		Cores:      runtime.NumCPU(),
		GOMAXPROCS: nproc,
		GoVersion:  runtime.Version(),
		CPUModel:   cpuModel(),
		Transport:  "in-memory",
		Loop:       "closed, one client",
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// resultLine renders the contract's one-line JSON result.
func (o *runOutput) resultLine() string {
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool          `json:"correct"`
		Attempted uint64        `json:"attempted"`
		Failed    uint64        `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{true, o.Attempted, o.Failed, map[string]mv{}}
	for _, d := range o.declared {
		line.Metrics[d.name] = mv{o.Metrics[d.name], d.unit}
	}
	b, err := json.Marshal(line)
	if err != nil {
		panic(err) // only a NaN could do this; every metric is checked finite
	}
	return string(b)
}

// runWorkload runs one workload in one mode, prints its metrics and writes
// its result file. Any failed output check is an error: no metric is
// printed and no file written.
func runWorkload(name string, cfg runConfig, traced bool, w io.Writer) (*runOutput, error) {
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return nil, err
	}
	tmp, err := os.MkdirTemp(cfg.outDir, "tmp-"+name+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(tmp)

	out := &runOutput{
		Workload: name, Seed: cfg.seed, Seconds: cfg.seconds, Env: environment(),
		Metrics: map[string]float64{}, Samples: map[string]int{}, Checks: map[string]float64{},
	}
	t0 := nowSec()
	var ledger strings.Builder
	var rec *recorder
	switch {
	case traced:
		out.Trace, out.declared = 1, perLayer
		seconds := cfg.seconds * traceShare
		var lr *layerRun
		if name == "federated-3site" {
			spec := federatedSpec.scaled(seconds)
			lr, err = traceFederated(&spec, cfg.seed, tmp, &ledger)
		} else {
			spec := siteSpecByName(name).scaled(seconds)
			lr, err = traceSite(&spec, cfg.seed, tmp, &ledger)
		}
		if err != nil {
			return nil, err
		}
		out.Metrics, out.Samples, rec = lr.metrics, lr.samples, lr.rec
		out.Attempted, out.Failed = lr.attempts, lr.lost
	case name == "federated-3site":
		out.declared = endToEnd
		spec := federatedSpec.scaled(cfg.seconds)
		res, sys, err := runFederated(&spec, cfg.seed, tmp, setupCount(spec.smoke), newRecorder(false))
		if err != nil {
			return nil, err
		}
		sys.close()
		if err := federatedOutput(&spec, res, out); err != nil {
			return nil, err
		}
	default:
		out.declared = endToEnd
		spec := siteSpecByName(name).scaled(cfg.seconds)
		r, err := startSite(&spec, cfg.seed, tmp, setupCount(spec.smoke), false)
		if err != nil {
			return nil, err
		}
		err = r.execute()
		r.close()
		if err != nil {
			return nil, err
		}
		if err := siteOutput(&spec, r.res, out); err != nil {
			return nil, err
		}
	}
	out.WallSec = nowSec() - t0
	for _, d := range out.declared {
		v, ok := out.Metrics[d.name]
		if !ok {
			out.Metrics[d.name] = 0 // a layer this workload does not touch
		} else if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s is %v", d.name, v)
		}
	}
	if out.Attempted == 0 {
		return nil, fmt.Errorf("nothing was attempted")
	}

	out.print(w)
	if ledger.Len() > 0 {
		fmt.Fprint(w, ledger.String())
	}
	if rec != nil {
		path := filepath.Join(cfg.outDir, "trace-"+name+".json")
		if err := rec.writeJSON(path, name, cfg.seed); err != nil {
			return nil, err
		}
		fmt.Fprintf(w, "trace: %s (%d spans)\n", path, len(rec.spans))
	}
	path := filepath.Join(cfg.outDir, fmt.Sprintf("result-%s-trace%d.json", name, out.Trace))
	data, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return nil, err
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return nil, err
	}
	fmt.Fprintf(w, "result: %s\n", path)
	return out, nil
}

func siteSpecByName(name string) siteSpec {
	for _, s := range siteSpecs {
		if s.name == name {
			return s
		}
	}
	panic("bench: no single-site workload " + name)
}

// siteOutput turns a single-site production run into end-to-end metrics
// and applies the output checks that need ground truth.
func siteOutput(spec *siteSpec, res *siteResult, out *runOutput) error {
	res.endToEnd(out)
	out.Series["detect_wall_ms"], out.Series["detect_sim_minutes"] = res.detectWallMS, res.detectSimMin
	out.Extra = map[string]float64{}
	siteEndToEnd(res, out.Extra, out.Samples)
	out.Attempted, out.Failed = res.sentSamples, res.lost

	out.Checks["fresh_victims"] = float64(res.freshVictims)
	vals := maps.Clone(out.Extra)
	vals["flagged_f1"] = res.f1
	vals["fresh_victims_missed_share"] = ratio(float64(res.missed), float64(res.freshVictims))
	vals["detect_wall_over_rounds_p50"] = orZero(median(res.detectOverRounds))
	vals["detect_wall_over_rounds_p75"] = orZero(quantile(res.detectOverRounds, 0.75))
	return hold(spec.gates, out, vals)
}

// hold applies a workload's gates to one run's values — the workload-specific
// end-to-end metrics plus what is derived from them — and records value and
// limit in the result's output checks. Lost samples fail every workload: the
// loop is closed and the queue blocks, so the scripts lose none.
func hold(gates []gate, out *runOutput, vals map[string]float64) error {
	for _, g := range append([]gate{atMost("ingest_loss_share", 0)}, gates...) {
		v, ok := vals[g.name]
		if !ok {
			panic("bench: gate on a value this workload does not have: " + g.name)
		}
		out.Checks[g.name], out.Checks[g.name+"_limit"] = v, g.limit
		if g.floor && v < g.limit {
			return fmt.Errorf("%s is %.4g, below the floor %.4g the output check holds this workload to", g.name, v, g.limit)
		}
		if !g.floor && v > g.limit {
			return fmt.Errorf("%s is %.4g, above the ceiling %.4g the output check holds this workload to", g.name, v, g.limit)
		}
	}
	return nil
}

func federatedOutput(spec *fedSpec, res *fedResult, out *runOutput) error {
	res.endToEnd(out)
	out.Series["cluster_minute_ms"], out.Series["gossip_round_ms"] = res.stepMS, res.gossipMS
	out.Extra = map[string]float64{}
	federatedEndToEnd(res, out.Extra, out.Samples)
	out.Attempted, out.Failed = res.routed, res.lost
	vals := maps.Clone(out.Extra)
	vals["flagged_f1"] = res.f1 // mean over the sites
	// Each gossip round against the site rounds of the same minute: paired,
	// the ratio does not move when the host slows down for part of the run.
	var paired []float64
	for k, ms := range res.gossipMS {
		paired = append(paired, ms/res.roundMS[(k+1)*spec.gossipEvery/spec.trainEvery-1])
	}
	vals["gossip_over_round_p50"] = median(paired)
	return hold(spec.gates, out, vals)
}

// print writes every metric by name with its unit, sample count and bound.
func (o *runOutput) print(w io.Writer) {
	e := o.Env
	fmt.Fprintf(w, "== %s  seed %d  trace %d  seconds %g  (%.1f s wall)\n", o.Workload, o.Seed, o.Trace, o.Seconds, o.WallSec)
	fmt.Fprintf(w, "   cores %d  gomaxprocs %d  %s  %s  transport: %s  loop: %s\n", e.Cores, e.GOMAXPROCS, e.GoVersion, e.CPUModel, e.Transport, e.Loop)
	fmt.Fprintf(w, "   attempted %d  failed %d  output checks passed:", o.Attempted, o.Failed)
	for _, k := range sortedKeys(o.Checks) {
		fmt.Fprintf(w, " %s=%.4g", k, o.Checks[k])
	}
	fmt.Fprintln(w)
	row := func(name, unit, note string, v float64) {
		s := ""
		if c, ok := o.Samples[name]; ok {
			s = fmt.Sprintf("n=%d", c)
		}
		fmt.Fprintf(w, "  %-32s %16.6g %-11s %-8s %s\n", name, v, unit, s, note)
	}
	for _, d := range o.declared {
		note := ""
		if d.bound > 0 {
			note = fmt.Sprintf("%s is better; may worsen by %.0f%%", d.better, 100*d.bound)
		}
		row(d.name, d.unit, note, o.Metrics[d.name])
	}
	if len(o.Extra) > 0 {
		fmt.Fprintln(w, "  -- specific to this workload (declared per-layer; held by the output check's gates):")
		for _, d := range perLayer {
			if v, ok := o.Extra[d.name]; ok {
				row(d.name, d.unit, "", v)
			}
		}
	}
}
