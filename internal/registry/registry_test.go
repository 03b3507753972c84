package registry

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"
	"time"

	"github.com/ixp-scrubber/ixpscrubber/internal/balance"
	"github.com/ixp-scrubber/ixpscrubber/internal/core"
	"github.com/ixp-scrubber/ixpscrubber/internal/synth"
)

var update = flag.Bool("update", false, "rewrite golden files")

// fixedClock returns a deterministic clock for manifest stamps.
func fixedClock(unix int64) func() time.Time {
	return func() time.Time { return time.Unix(unix, 0).UTC() }
}

// trainScrubber trains one small scrubber on a balanced synthetic corpus.
func trainScrubber(tb testing.TB, seed uint64) *core.Scrubber {
	tb.Helper()
	p := synth.ProfileUS1()
	p.Seed = seed
	g := synth.NewGenerator(p)
	flows := g.Generate(0, 90)
	bal, _ := balance.Flows(seed, flows)
	vectors := make([]string, len(bal))
	for i := range bal {
		vectors[i] = bal[i].Vector
	}
	cfg := core.DefaultConfig()
	cfg.Seed = seed
	s := core.New(cfg)
	if err := s.TrainFlows(synth.Records(bal), vectors); err != nil {
		tb.Fatal(err)
	}
	return s
}

// trainedBundle trains one small scrubber and serializes it.
func trainedBundle(tb testing.TB, seed uint64) ([]byte, *core.Scrubber) {
	tb.Helper()
	s := trainScrubber(tb, seed)
	var buf bytes.Buffer
	if err := s.Save(&buf); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes(), s
}

func openTest(t *testing.T, clockUnix int64) *Registry {
	t.Helper()
	r, err := Open(t.TempDir(), Options{Clock: fixedClock(clockUnix)})
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestPublishPromoteChampion(t *testing.T) {
	r := openTest(t, 1700000000)
	ctx := context.Background()
	bundle, _ := trainedBundle(t, 1)

	m, err := r.Publish(ctx, bundle, Meta{TrainRecords: 100})
	if err != nil {
		t.Fatal(err)
	}
	if m.Seq != 1 || m.Kind != core.BundleFull || m.Source != SourceLocal {
		t.Fatalf("manifest: %+v", m)
	}
	if m.ID != BundleID(bundle) {
		t.Fatalf("id %s != BundleID %s", m.ID, BundleID(bundle))
	}

	// Idempotent: same bytes, same manifest, no new seq.
	m2, err := r.Publish(ctx, bundle, Meta{})
	if err != nil {
		t.Fatal(err)
	}
	if m2.Seq != m.Seq || m2.ID != m.ID {
		t.Fatalf("re-publish changed manifest: %+v vs %+v", m2, m)
	}

	// No champion yet: fallback serves the only bundle.
	cm, cb, err := r.Champion()
	if err != nil {
		t.Fatal(err)
	}
	if cm.ID != m.ID || !bytes.Equal(cb, bundle) {
		t.Fatal("fallback champion mismatch")
	}

	if err := r.Promote(ctx, m.ID); err != nil {
		t.Fatal(err)
	}
	cm, _, err = r.Champion()
	if err != nil {
		t.Fatal(err)
	}
	if cm.ID != m.ID {
		t.Fatalf("champion %s != %s", cm.ID, m.ID)
	}

	// Promoting an unknown id is refused.
	if err := r.Promote(ctx, "deadbeefdeadbeef"); err == nil {
		t.Fatal("promoted unknown id")
	}
}

func TestPublishSequenceAndReopen(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()
	r, err := Open(dir, Options{Clock: fixedClock(100)})
	if err != nil {
		t.Fatal(err)
	}
	b1, _ := trainedBundle(t, 1)
	b2, _ := trainedBundle(t, 2)
	m1, err := r.Publish(ctx, b1, Meta{})
	if err != nil {
		t.Fatal(err)
	}
	m2, err := r.Publish(ctx, b2, Meta{Parent: m1.ID})
	if err != nil {
		t.Fatal(err)
	}
	if m1.Seq != 1 || m2.Seq != 2 {
		t.Fatalf("seqs %d, %d", m1.Seq, m2.Seq)
	}

	// Reopen resumes the counter.
	r2, err := Open(dir, Options{Clock: fixedClock(200)})
	if err != nil {
		t.Fatal(err)
	}
	b3, _ := trainedBundle(t, 3)
	m3, err := r2.Publish(ctx, b3, Meta{})
	if err != nil {
		t.Fatal(err)
	}
	if m3.Seq != 3 {
		t.Fatalf("seq after reopen = %d, want 3", m3.Seq)
	}
	list := r2.List()
	if len(list) != 3 || list[0].Seq != 1 || list[2].Seq != 3 {
		t.Fatalf("list: %+v", list)
	}
}

func TestChampionFallsBackPastCorruption(t *testing.T) {
	r := openTest(t, 100)
	ctx := context.Background()
	b1, _ := trainedBundle(t, 1)
	b2, _ := trainedBundle(t, 2)
	m1, _ := r.Publish(ctx, b1, Meta{})
	m2, _ := r.Publish(ctx, b2, Meta{})
	if err := r.Promote(ctx, m2.ID); err != nil {
		t.Fatal(err)
	}

	// Corrupt the promoted bundle: checksum check must reject it and the
	// fallback must land on the older, intact model.
	if err := os.WriteFile(r.bundlePath(m2.ID), []byte("{}"), 0o644); err != nil {
		t.Fatal(err)
	}
	cm, cb, err := r.Champion()
	if err != nil {
		t.Fatal(err)
	}
	if cm.ID != m1.ID || !bytes.Equal(cb, b1) {
		t.Fatalf("fallback served %s, want %s", cm.ID, m1.ID)
	}

	// A torn (half-written) manifest is skipped by List, not fatal.
	torn, err := EncodeManifest(m2)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(r.manifestPath(m2.ID), torn[:len(torn)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	invalid := 0
	r.Metrics = &Metrics{InvalidManifests: func() { invalid++ }}
	list := r.List()
	if len(list) != 1 || list[0].ID != m1.ID {
		t.Fatalf("list with torn manifest: %+v", list)
	}
	if invalid == 0 {
		t.Fatal("torn manifest not counted")
	}
}

func TestGC(t *testing.T) {
	r := openTest(t, 100)
	ctx := context.Background()
	var ids []string
	for seed := uint64(1); seed <= 4; seed++ {
		b, _ := trainedBundle(t, seed)
		m, err := r.Publish(ctx, b, Meta{Pinned: seed == 1})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, m.ID)
	}
	if err := r.Promote(ctx, ids[1]); err != nil { // champion = seq 2
		t.Fatal(err)
	}
	// keep=1 → survivors: pinned seq1, champion seq2, newest unpinned seq4.
	removed := r.GC(1)
	if removed != 1 {
		t.Fatalf("removed %d, want 1", removed)
	}
	left := map[string]bool{}
	for _, m := range r.List() {
		left[m.ID] = true
	}
	if !left[ids[0]] || !left[ids[1]] || left[ids[2]] || !left[ids[3]] {
		t.Fatalf("survivors: %v", left)
	}

	// Orphan bundle (no manifest) is swept.
	orphan := filepath.Join(r.dir, "feedfacefeedface.bundle.json")
	if err := os.WriteFile(orphan, []byte("{}"), 0o644); err != nil {
		t.Fatal(err)
	}
	r.GC(10)
	if _, err := os.Stat(orphan); !os.IsNotExist(err) {
		t.Fatal("orphan bundle survived GC")
	}
}

func TestExportImportClassifier(t *testing.T) {
	src := openTest(t, 100)
	dst := openTest(t, 200)
	ctx := context.Background()
	bundle, s := trainedBundle(t, 1)
	m, err := src.Publish(ctx, bundle, Meta{EncoderFingerprint: s.Encoder().Fingerprint()})
	if err != nil {
		t.Fatal(err)
	}

	exported, err := src.ExportClassifier(m.ID)
	if err != nil {
		t.Fatal(err)
	}
	info, err := core.InspectBundle(exported)
	if err != nil {
		t.Fatal(err)
	}
	if info.Kind != core.BundleClassifierOnly {
		t.Fatalf("export kind %s", info.Kind)
	}

	// Full bundles are refused on import.
	if _, err := dst.ImportClassifier(ctx, bundle, Meta{}); err == nil {
		t.Fatal("imported a full bundle")
	}

	im, err := dst.ImportClassifier(ctx, exported, Meta{Parent: m.ID})
	if err != nil {
		t.Fatal(err)
	}
	if im.Source != SourceImported || im.Kind != core.BundleClassifierOnly {
		t.Fatalf("import manifest: %+v", im)
	}

	// The imported scrubber refuses to predict unbound, then matches the
	// source exactly once re-bound to the source's encoder.
	_, loaded, err := dst.LoadScrubber(im.ID)
	if err != nil {
		t.Fatal(err)
	}
	p := synth.ProfileUS1()
	p.Seed = 42
	g := synth.NewGenerator(p)
	flows := g.Generate(0, 30)
	bal, _ := balance.Flows(42, flows)
	vecs := make([]string, len(bal))
	for i := range bal {
		vecs[i] = bal[i].Vector
	}
	aggs := s.Aggregate(synth.Records(bal), vecs)
	if _, err := loaded.Predict(aggs); err == nil {
		t.Fatal("unbound import predicted")
	}
	want, err := s.Predict(aggs)
	if err != nil {
		t.Fatal(err)
	}
	got, err := loaded.WithEncoder(s.Encoder()).Predict(aggs)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("aggregate %d: %d != %d after export/import", i, got[i], want[i])
		}
	}
}

// TestManifestGolden locks the on-disk manifest JSON format. A diff here
// means the schema changed: bump SchemaVersion and regenerate deliberately
// with -update.
func TestManifestGolden(t *testing.T) {
	m := Manifest{
		SchemaVersion:      SchemaVersion,
		ID:                 "0123456789abcdef",
		Checksum:           "0123456789abcdef0123456789abcdef0123456789abcdef0123456789abcdef",
		Seq:                7,
		CreatedUnix:        1700000000,
		Kind:               core.BundleFull,
		Model:              "XGB",
		TrainFromUnix:      1699996400,
		TrainToUnix:        1700000000,
		TrainRecords:       123456,
		EncoderFingerprint: "00c0ffee00c0ffee",
		Source:             SourceLocal,
		Parent:             "fedcba9876543210",
		Pinned:             true,
		Notes:              "golden fixture",
	}
	got, err := EncodeManifest(m)
	if err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "manifest.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to regenerate)", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("manifest format drifted from golden:\n--- got ---\n%s--- want ---\n%s", got, want)
	}

	// The encoding itself round-trips.
	var back Manifest
	if err := json.Unmarshal(got, &back); err != nil {
		t.Fatal(err)
	}
	if back != m {
		t.Errorf("round trip: %+v != %+v", back, m)
	}
}

func TestDeterministicManifestBytes(t *testing.T) {
	// Two registries fed the same bundle under the same virtual clock must
	// produce byte-identical manifests — the property the chaos harness's
	// determinism checks lean on.
	ctx := context.Background()
	bundle, _ := trainedBundle(t, 1)
	var files [2][]byte
	for i := range files {
		r := openTest(t, 555)
		m, err := r.Publish(ctx, bundle, Meta{TrainRecords: 9, TrainFromUnix: 1, TrainToUnix: 2})
		if err != nil {
			t.Fatal(err)
		}
		data, err := os.ReadFile(r.manifestPath(m.ID))
		if err != nil {
			t.Fatal(err)
		}
		files[i] = data
	}
	if !bytes.Equal(files[0], files[1]) {
		t.Fatalf("manifests differ:\n%s\n%s", files[0], files[1])
	}
}

func TestPublishRejectsGarbage(t *testing.T) {
	r := openTest(t, 100)
	failures := 0
	r.Metrics = &Metrics{PublishFailures: func() { failures++ }}
	if _, err := r.Publish(context.Background(), []byte("not a bundle"), Meta{}); err == nil {
		t.Fatal("garbage published")
	}
	if failures != 1 {
		t.Fatalf("failures = %d", failures)
	}
}

// BenchmarkPublish measures a full publish cycle: hash + bundle write +
// manifest commit (files are uncommitted between iterations so every pass
// takes the non-idempotent path).
func BenchmarkPublish(b *testing.B) {
	bundle, _ := trainedBundle(b, 1)
	r, err := Open(b.TempDir(), Options{Clock: fixedClock(100)})
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	id := BundleID(bundle)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := r.Publish(ctx, bundle, Meta{}); err != nil {
			b.Fatal(err)
		}
		os.Remove(r.manifestPath(id))
		os.Remove(r.bundlePath(id))
	}
}

// BundleID derives the content-hash id Publish assigns to bundle bytes.
func BundleID(bundle []byte) string {
	sum := sha256.Sum256(bundle)
	return hex.EncodeToString(sum[:8])
}
