package core

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"github.com/ixp-scrubber/ixpscrubber/internal/synth"
)

func TestBundleSaveLoadRoundTrip(t *testing.T) {
	s, test := quickScrubber(t)
	var buf bytes.Buffer
	if err := s.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}

	// Identical predictions on every test aggregate.
	want, err := s.Predict(test)
	if err != nil {
		t.Fatal(err)
	}
	got, err := loaded.Predict(test)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("aggregate %d: prediction %d != %d after round trip", i, got[i], want[i])
		}
	}
	// Rules and encoder survive.
	if loaded.Rules().Len() != s.Rules().Len() {
		t.Errorf("rules: %d != %d", loaded.Rules().Len(), s.Rules().Len())
	}
	// Feature importance still maps to names.
	imp, err := loaded.FeatureImportance()
	if err != nil {
		t.Fatal(err)
	}
	if len(imp) == 0 || !strings.Contains(imp[0].Column, "/") {
		t.Errorf("importance after load: %+v", imp[:min(3, len(imp))])
	}
	// Explain still works on the loaded model.
	ex, err := loaded.Explain(test[0])
	if err != nil {
		t.Fatal(err)
	}
	if len(ex.Evidence) == 0 {
		t.Error("no evidence after load")
	}
}

// TestBundleBytesAreEncodingJSON pins the hand-assembled envelope to what
// encoding/json makes of the same bundleJSON: bundle bytes are content
// hashes, registry ids and cluster digests.
func TestBundleBytesAreEncodingJSON(t *testing.T) {
	s, _ := quickScrubber(t)
	s.Encoder().Override("src_ip", 42, -3.5)
	for kind, save := range map[string]func(*bytes.Buffer) error{
		BundleFull:           func(b *bytes.Buffer) error { return s.Save(b) },
		BundleClassifierOnly: func(b *bytes.Buffer) error { return s.SaveClassifierOnly(b) },
	} {
		var got, want bytes.Buffer
		if err := save(&got); err != nil {
			t.Fatal(err)
		}
		var in bundleJSON
		if err := json.Unmarshal(got.Bytes(), &in); err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		if in.Kind != kind || (len(in.Encoder) > 0) != (kind == BundleFull) || len(in.XGB) == 0 {
			t.Fatalf("%s: envelope decoded as kind=%q encoder=%d xgb=%d bytes", kind, in.Kind, len(in.Encoder), len(in.XGB))
		}
		if err := json.NewEncoder(&want).Encode(&in); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Fatalf("%s bundle is not what encoding/json writes (%d vs %d bytes)", kind, got.Len(), want.Len())
		}
	}
}

func TestBundleSaveRequiresFittedXGB(t *testing.T) {
	s := New(DefaultConfig())
	var buf bytes.Buffer
	if err := s.Save(&buf); err == nil {
		t.Error("unfitted scrubber saved")
	}
	bal, vectors := balancedFlows(t, 8, 120)
	records := synth.Records(bal)
	dt := New(Config{Model: ModelDT, AutoAccept: true})
	if err := dt.TrainFlows(records, vectors); err != nil {
		t.Fatal(err)
	}
	if err := dt.Save(&buf); err == nil {
		t.Error("DT bundle saved (XGB-only)")
	}
}

func TestBundleLoadRejectsGarbage(t *testing.T) {
	if _, err := Load(bytes.NewReader([]byte("{"))); err == nil {
		t.Error("garbage accepted")
	}
	if _, err := Load(bytes.NewReader([]byte(`{"version":9}`))); err == nil {
		t.Error("unknown version accepted")
	}
	if _, err := Load(bytes.NewReader([]byte(`{"version":1,"model":"DT"}`))); err == nil {
		t.Error("non-XGB bundle accepted")
	}
	if _, err := Load(bytes.NewReader([]byte(`{"version":1,"model":"XGB","kind":"half"}`))); err == nil {
		t.Error("unknown kind accepted")
	}
}

func TestClassifierOnlyBundleRoundTrip(t *testing.T) {
	s, test := quickScrubber(t)
	var buf bytes.Buffer
	if err := s.SaveClassifierOnly(&buf); err != nil {
		t.Fatal(err)
	}
	// The encoder must not travel: the serialized form is strictly smaller
	// than the full bundle and carries no encoder field.
	var full bytes.Buffer
	if err := s.Save(&full); err != nil {
		t.Fatal(err)
	}
	if buf.Len() >= full.Len() {
		t.Errorf("classifier-only bundle (%d bytes) not smaller than full (%d)", buf.Len(), full.Len())
	}
	if bytes.Contains(buf.Bytes(), []byte(`"encoder"`)) {
		t.Error("classifier-only bundle carries an encoder")
	}

	info, err := InspectBundle(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if info.Kind != BundleClassifierOnly || info.Model != ModelXGB {
		t.Errorf("inspect: %+v", info)
	}

	loaded, err := Load(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	// Unbound: predicting must refuse until an encoder is attached.
	if _, err := loaded.Predict(test); err == nil {
		t.Fatal("unbound classifier-only bundle predicted")
	}
	// Re-bound to the exporter's own encoder, predictions match exactly
	// (same trees, same WoE tables).
	bound := loaded.WithEncoder(s.Encoder())
	want, err := s.Predict(test)
	if err != nil {
		t.Fatal(err)
	}
	got, err := bound.Predict(test)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("aggregate %d: prediction %d != %d after classifier-only round trip", i, got[i], want[i])
		}
	}
}

func TestInspectBundleFullDefault(t *testing.T) {
	s, _ := quickScrubber(t)
	var buf bytes.Buffer
	if err := s.Save(&buf); err != nil {
		t.Fatal(err)
	}
	info, err := InspectBundle(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if info.Kind != BundleFull {
		t.Errorf("kind = %q, want %q", info.Kind, BundleFull)
	}
	if _, err := InspectBundle([]byte("not json")); err == nil {
		t.Error("garbage inspected")
	}
}

func TestPredictEncodedMatchesPredict(t *testing.T) {
	s, test := quickScrubber(t)
	want, err := s.Predict(test)
	if err != nil {
		t.Fatal(err)
	}
	x := s.EncodeFeatures(test)
	got, err := s.PredictEncoded(x)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("aggregate %d: PredictEncoded %d != Predict %d", i, got[i], want[i])
		}
	}
}
