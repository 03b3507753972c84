package obs

import (
	"flag"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files")

// golden compares the registry's exposition against testdata/<name>.golden.
// Run with -update to rewrite the files after an intentional format change;
// the diff then documents the change in the PR.
func golden(t *testing.T, name string, r *Registry) {
	t.Helper()
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join("testdata", name+".golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading golden file (run with -update to create): %v", err)
	}
	if b.String() != string(want) {
		t.Errorf("exposition differs from %s:\n--- got ---\n%s--- want ---\n%s", path, b.String(), want)
	}
}

// TestGoldenScalars locks the family ordering (sorted by name regardless of
// registration order) and the counter/gauge sample syntax.
func TestGoldenScalars(t *testing.T) {
	r := NewRegistry()
	// Registered deliberately out of name order.
	r.Gauge("scrubber_window_records", "Records inside the sliding training window.").Set(12345)
	r.Counter("scrubber_rounds_total", "Completed training rounds.").Add(3)
	v := r.CounterVec("collector_datagrams_total", "Datagrams received.", "proto")
	v.With("sflow").Add(100)
	v.With("ipfix").Add(42)
	r.Gauge("balancer_reduction_ratio", "Share of records dropped by balancing.").Set(0.9973)
	golden(t, "scalars", r)
}

// TestGoldenHistogram locks bucket cumulativeness: each le bucket must
// include every observation below its bound, the +Inf bucket must equal
// _count, and _sum must be the exact total.
func TestGoldenHistogram(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("train_duration_seconds", "Training round wall time.", []float64{0.1, 1, 10})
	for _, v := range []float64{0.05, 0.1, 0.25, 2, 2, 30} {
		h.Observe(v)
	}
	hv := r.HistogramVec("predict_latency_seconds", "Per-batch classification latency.", []float64{0.001, 0.01}, "model")
	hv.With("XGB").Observe(0.0005)
	hv.With("XGB").Observe(0.5)
	hv.With("RBC").Observe(0.002)
	golden(t, "histogram", r)
}

// TestGoldenEscaping locks help and label-value escaping: backslashes,
// quotes, and newlines must round-trip through the text format.
func TestGoldenEscaping(t *testing.T) {
	r := NewRegistry()
	v := r.GaugeVec("weird_labels", "Help with \\ backslash and\nnewline.", "path", "quote")
	v.With(`C:\flows\dump`, `say "hi"`).Set(1)
	v.With("line\nbreak", "").Set(2)
	golden(t, "escaping", r)
}

// TestGoldenLabelOrdering locks child ordering within a family: samples
// sort by label values, so scrapes are diffable across restarts.
func TestGoldenLabelOrdering(t *testing.T) {
	r := NewRegistry()
	v := r.CounterVec("bgp_messages_total", "BGP messages by type.", "type", "dir")
	for _, lv := range [][2]string{
		{"update", "in"}, {"keepalive", "in"}, {"update", "out"},
		{"notification", "in"}, {"keepalive", "out"},
	} {
		v.With(lv[0], lv[1]).Inc()
	}
	golden(t, "label_ordering", r)
}

// HistogramVec is a family of histograms sharing a label schema.
type HistogramVec struct{ f *family }

// HistogramVec returns the labeled histogram family with the given name.
func (r *Registry) HistogramVec(name, help string, buckets []float64, labelNames ...string) *HistogramVec {
	if buckets == nil {
		buckets = DurationBuckets
	}
	mustAscending(name, buckets)
	return &HistogramVec{r.getFamily(name, help, typeHistogram, labelNames, buckets)}
}

// With returns the child histogram for the given label values.
func (v *HistogramVec) With(labelValues ...string) *Histogram {
	return &Histogram{v.f.child(labelValues)}
}

// Sum returns the sum of observed values.
func (h *Histogram) Sum() float64 {
	return math.Float64frombits(h.c.hist.sum.Load())
}
