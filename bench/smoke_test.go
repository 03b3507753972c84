package main

import (
	"encoding/json"
	"io"
	"os"
	"regexp"
	"strings"
	"testing"
)

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestManifestIsGenerated keeps BENCHMARK.json and the declarations in
// spec.go in step, in both directions: the file is exactly what
// `go run ./bench -manifest` prints.
func TestManifestIsGenerated(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != manifestJSON() {
		t.Error("BENCHMARK.json differs from the declarations in spec.go; regenerate it with `go run ./bench -manifest > BENCHMARK.json`")
	}
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef{}, endToEnd...), perLayer...) {
		if !nameRE.MatchString(d.name) {
			t.Errorf("metric name %q uses characters outside letters, digits, _ . -", d.name)
		}
		if seen[d.name] {
			t.Errorf("metric %s declared twice", d.name)
		}
		seen[d.name] = true
	}
	for _, d := range endToEnd {
		if d.bound <= 0 || d.bound > 0.25 {
			t.Errorf("end-to-end metric %s has bound %g, outside (0, 0.25]", d.name, d.bound)
		}
	}
	for _, w := range workloads {
		if !nameRE.MatchString(w.name) || len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("workload %q: bad name or a why that is not one line of at most 200 characters", w.name)
		}
	}
}

// TestSmoke runs every workload in both modes at about 1/50 scale: the
// output checks must pass and exactly the declared names must come out.
func TestSmoke(t *testing.T) {
	cfg := runConfig{seed: 1, seconds: refSeconds / 50.0, outDir: t.TempDir()}
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			out, err := runWorkload(w.name, cfg, traced, io.Discard)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.name, traced, err)
			}
			declared := endToEnd
			if traced {
				declared = perLayer
			}
			var line struct {
				Correct   bool `json:"correct"`
				Attempted uint64
				Failed    uint64
				Metrics   map[string]struct {
					Value float64
					Unit  string
				}
			}
			if err := json.Unmarshal([]byte(out.resultLine()), &line); err != nil {
				t.Fatalf("%s: result line: %v", w.name, err)
			}
			if !line.Correct || line.Attempted == 0 || line.Failed != 0 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d", w.name, traced, line.Correct, line.Attempted, line.Failed)
			}
			if len(line.Metrics) != len(declared) {
				t.Errorf("%s traced=%v: %d metrics in the result line, %d declared", w.name, traced, len(line.Metrics), len(declared))
			}
			for _, d := range declared {
				got, ok := line.Metrics[d.name]
				if !ok {
					t.Errorf("%s traced=%v: %s missing from the result line", w.name, traced, d.name)
				} else if got.Unit != d.unit {
					t.Errorf("%s: %s has unit %q, declared %q", w.name, d.name, got.Unit, d.unit)
				}
				if !traced && got.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s is %v; it must never be 0", w.name, d.name, got.Value)
				}
			}
		}
	}
}
