package core

import (
	"bytes"
	"testing"

	"github.com/ixp-scrubber/ixpscrubber/internal/synth"
)

// fitScrubberForInto trains a single-worker XGB scrubber plus a test
// window, shared across the Into tests.
func fitScrubberForInto(t *testing.T) (*Scrubber, [][]float64) {
	t.Helper()
	bal, vectors := balancedFlows(t, 5, 300)
	records := synth.Records(bal)
	cut := len(records) * 2 / 3
	for cut < len(records) && records[cut].Minute() == records[cut-1].Minute() {
		cut++
	}
	cfg := DefaultConfig()
	cfg.Workers = 1
	s := New(cfg)
	if _, err := s.MineRules(records[:cut]); err != nil {
		t.Fatal(err)
	}
	train := s.Aggregate(records[:cut], vectors[:cut])
	test := s.Aggregate(records[cut:], vectors[cut:])
	if err := s.Fit(records[:cut], train); err != nil {
		t.Fatal(err)
	}
	return s, s.EncodeFeatures(test)
}

// TestPredictEncodedIntoMatches pins the buffer-reuse serving path to the
// allocating pipeline Predict verdict for verdict, fitted and after a
// bundle round-trip.
func TestPredictEncodedIntoMatches(t *testing.T) {
	s, x := fitScrubberForInto(t)
	want := s.pipeline.Predict(x)
	out := make([]int, len(x))
	for pass := 0; pass < 2; pass++ {
		if err := s.PredictEncodedInto(x, out); err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if out[i] != want[i] {
				t.Fatalf("pass %d row %d: Into %d != Predict %d", pass, i, out[i], want[i])
			}
		}
	}

	var buf bytes.Buffer
	if err := s.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if err := loaded.PredictEncodedInto(x, out); err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if out[i] != want[i] {
			t.Fatalf("loaded bundle row %d: Into %d != fitted %d", i, out[i], want[i])
		}
	}

	if err := s.PredictEncodedInto(x, out[:1]); err == nil {
		t.Fatal("length mismatch accepted")
	}
}

// TestPredictEncodedIntoAllocs is the satellite gate: the single-worker
// serving path allocates nothing per call once the pipeline scratch has
// grown to the window size.
func TestPredictEncodedIntoAllocs(t *testing.T) {
	s, x := fitScrubberForInto(t)
	out := make([]int, len(x))
	if err := s.PredictEncodedInto(x, out); err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(50, func() {
		if err := s.PredictEncodedInto(x, out); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("PredictEncodedInto allocates %v per run, want 0", n)
	}
}
