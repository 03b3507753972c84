// Package registry stores immutable, versioned model bundles on disk — the
// model lifecycle backbone (§5's drift/transfer story made operational).
//
// Layout under the registry directory:
//
//	<id>.bundle.json    the serialized core bundle (content-addressed)
//	<id>.manifest.json  metadata: seq, train window, kind, checksum
//	CHAMPION            the id of the currently promoted model + "\n"
//
// The id is the first 16 hex characters of the bundle's SHA-256, so a
// bundle can never change under its name and re-publishing identical bytes
// is a no-op. Every write goes through the same temp-file+rename protocol
// as the ACL writer (shared acl.Writer), so a crash or torn write can leave
// at worst an orphan bundle or a garbage temp file — never a manifest that
// points at missing or truncated data. The manifest rename is the commit
// point: a bundle without a manifest is invisible garbage that GC sweeps.
//
// Three lifecycle operations: Publish (a training round produced a new
// model), Promote (flip the CHAMPION pointer; the serving path picks it up
// via an atomic.Pointer hot swap with no ingest pause), and
// ExportClassifier/ImportClassifier (geographic transfer of Fig. 12 —
// trees travel, the WoE table stays local).
package registry

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"log/slog"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"github.com/ixp-scrubber/ixpscrubber/internal/acl"
	"github.com/ixp-scrubber/ixpscrubber/internal/core"
)

// SchemaVersion is the manifest JSON schema version. Bump deliberately;
// the golden-file test locks the serialized form.
const SchemaVersion = 1

// championFile is the promotion pointer filename.
const championFile = "CHAMPION"

// Bundle provenance values for Manifest.Source.
const (
	SourceLocal    = "local"    // trained at this vantage point
	SourceImported = "imported" // classifier-only transfer from elsewhere
)

// Manifest is the versioned metadata of one published bundle. It is the
// registry's on-disk contract: fields are append-only and the golden test
// locks the encoding.
type Manifest struct {
	SchemaVersion int    `json:"schema_version"`
	ID            string `json:"id"`
	Checksum      string `json:"sha256"`
	Seq           uint64 `json:"seq"`
	CreatedUnix   int64  `json:"created_unix"`
	Kind          string `json:"kind"`
	Model         string `json:"model"`
	// Train-window metadata: what data the model saw, so drift references
	// and retrain decisions can reason about model age.
	TrainFromUnix int64 `json:"train_from_unix,omitempty"`
	TrainToUnix   int64 `json:"train_to_unix,omitempty"`
	TrainRecords  int   `json:"train_records,omitempty"`
	// EncoderFingerprint digests the WoE counts the model was trained
	// against (hex of woe.Encoder.Fingerprint). For classifier-only
	// bundles it names the encoder left behind at the exporter, letting an
	// importer detect accidental same-site reimports.
	EncoderFingerprint string `json:"encoder_fingerprint,omitempty"`
	Source             string `json:"source"`
	Parent             string `json:"parent,omitempty"`
	Pinned             bool   `json:"pinned,omitempty"`
	Notes              string `json:"notes,omitempty"`
}

// Meta carries caller-supplied manifest fields for Publish.
type Meta struct {
	TrainFromUnix      int64
	TrainToUnix        int64
	TrainRecords       int
	EncoderFingerprint uint64
	Source             string // defaults to SourceLocal
	Parent             string // id of the previously serving model, if any
	Pinned             bool   // exempt from GC
	Notes              string
}

// Options configures Open.
type Options struct {
	// FS is the write-path filesystem; nil means the real one. Reads always
	// hit the real disk (fault injection targets writes).
	FS acl.FS
	// Clock stamps CreatedUnix; nil means time.Now. The chaos harness
	// injects its virtual clock here so manifests are bit-deterministic.
	Clock func() time.Time
	Log   *slog.Logger
}

// Metrics are the registry's observable counters. All methods are nil-safe.
type Metrics struct {
	Publishes        func() // successful Publish of a new bundle
	PublishFailures  func() // Publish that returned an error
	Promotions       func() // successful Promote
	GCRemoved        func(n int)
	InvalidManifests func() // manifest skipped during a scan (torn/garbage)
}

func (m *Metrics) publish() {
	if m != nil && m.Publishes != nil {
		m.Publishes()
	}
}
func (m *Metrics) publishFailure() {
	if m != nil && m.PublishFailures != nil {
		m.PublishFailures()
	}
}
func (m *Metrics) promote() {
	if m != nil && m.Promotions != nil {
		m.Promotions()
	}
}
func (m *Metrics) gcRemoved(n int) {
	if m != nil && m.GCRemoved != nil && n > 0 {
		m.GCRemoved(n)
	}
}
func (m *Metrics) invalid() {
	if m != nil && m.InvalidManifests != nil {
		m.InvalidManifests()
	}
}

// Registry is a versioned on-disk model store. Safe for concurrent use.
type Registry struct {
	dir     string
	writer  *acl.Writer
	clock   func() time.Time
	log     *slog.Logger
	Metrics *Metrics

	mu      sync.Mutex
	nextSeq uint64
}

// Open creates the directory if needed and scans existing manifests to
// resume the sequence counter.
func Open(dir string, opts Options) (*Registry, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("registry: creating %s: %w", dir, err)
	}
	clock := opts.Clock
	if clock == nil {
		clock = time.Now
	}
	r := &Registry{
		dir:    dir,
		writer: &acl.Writer{FS: opts.FS, Log: opts.Log},
		clock:  clock,
		log:    opts.Log,
	}
	for _, m := range r.List() {
		if m.Seq >= r.nextSeq {
			r.nextSeq = m.Seq
		}
	}
	return r, nil
}

// Writer exposes the underlying atomic writer so callers can tune retry
// pacing (the chaos harness installs an instant backoff so retries don't
// consume virtual time).
func (r *Registry) Writer() *acl.Writer { return r.writer }

func (r *Registry) bundlePath(id string) string {
	return filepath.Join(r.dir, id+".bundle.json")
}
func (r *Registry) manifestPath(id string) string {
	return filepath.Join(r.dir, id+".manifest.json")
}

// EncodeManifest renders a manifest in the canonical on-disk form (indented
// JSON + trailing newline). Exposed for the golden-file format test.
func EncodeManifest(m Manifest) ([]byte, error) {
	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(data, '\n'), nil
}

// Publish stores a bundle and commits its manifest. Identical bundle bytes
// publish to the same id, and re-publishing an already-committed id returns
// the existing manifest unchanged (idempotent, so crash-retry loops are
// safe). The bundle file lands before the manifest: the manifest rename is
// the commit point, and a failure in between leaves only an orphan bundle
// that GC collects.
func (r *Registry) Publish(ctx context.Context, bundle []byte, meta Meta) (Manifest, error) {
	info, err := core.InspectBundle(bundle)
	if err != nil {
		r.Metrics.publishFailure()
		return Manifest{}, fmt.Errorf("registry: rejecting bundle: %w", err)
	}
	sum := sha256.Sum256(bundle)
	id := hex.EncodeToString(sum[:8])

	r.mu.Lock()
	defer r.mu.Unlock()

	if existing, err := r.manifest(id); err == nil {
		return existing, nil // already committed
	}
	source := meta.Source
	if source == "" {
		source = SourceLocal
	}
	var fp string
	if meta.EncoderFingerprint != 0 {
		fp = fmt.Sprintf("%016x", meta.EncoderFingerprint)
	}
	m := Manifest{
		SchemaVersion:      SchemaVersion,
		ID:                 id,
		Checksum:           hex.EncodeToString(sum[:]),
		Seq:                r.nextSeq + 1,
		CreatedUnix:        r.clock().Unix(),
		Kind:               info.Kind,
		Model:              string(info.Model),
		TrainFromUnix:      meta.TrainFromUnix,
		TrainToUnix:        meta.TrainToUnix,
		TrainRecords:       meta.TrainRecords,
		EncoderFingerprint: fp,
		Source:             source,
		Parent:             meta.Parent,
		Pinned:             meta.Pinned,
		Notes:              meta.Notes,
	}
	if err := r.writer.Publish(ctx, r.bundlePath(id), bundle); err != nil {
		r.Metrics.publishFailure()
		return Manifest{}, fmt.Errorf("registry: writing bundle %s: %w", id, err)
	}
	mdata, err := EncodeManifest(m)
	if err != nil {
		r.Metrics.publishFailure()
		return Manifest{}, fmt.Errorf("registry: encoding manifest %s: %w", id, err)
	}
	if err := r.writer.Publish(ctx, r.manifestPath(id), mdata); err != nil {
		r.Metrics.publishFailure()
		return Manifest{}, fmt.Errorf("registry: committing manifest %s: %w", id, err)
	}
	r.nextSeq = m.Seq
	r.Metrics.publish()
	if r.log != nil {
		r.log.Info("registry publish", "id", id, "seq", m.Seq, "kind", m.Kind)
	}
	return m, nil
}

// manifest reads and validates one manifest by id.
func (r *Registry) manifest(id string) (Manifest, error) {
	data, err := os.ReadFile(r.manifestPath(id))
	if err != nil {
		return Manifest{}, err
	}
	var m Manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return Manifest{}, fmt.Errorf("registry: manifest %s: %w", id, err)
	}
	if m.SchemaVersion != SchemaVersion {
		return Manifest{}, fmt.Errorf("registry: manifest %s: unsupported schema %d", id, m.SchemaVersion)
	}
	if m.ID != id {
		return Manifest{}, fmt.Errorf("registry: manifest %s names id %s", id, m.ID)
	}
	return m, nil
}

// Get returns the manifest and verified bundle bytes for an id. The bundle
// hash is checked against the manifest checksum, so a corrupted bundle is
// an error, never silently served.
func (r *Registry) Get(id string) (Manifest, []byte, error) {
	m, err := r.manifest(id)
	if err != nil {
		return Manifest{}, nil, err
	}
	bundle, err := os.ReadFile(r.bundlePath(id))
	if err != nil {
		return Manifest{}, nil, fmt.Errorf("registry: bundle %s: %w", id, err)
	}
	sum := sha256.Sum256(bundle)
	if hex.EncodeToString(sum[:]) != m.Checksum {
		return Manifest{}, nil, fmt.Errorf("registry: bundle %s fails checksum", id)
	}
	return m, bundle, nil
}

// List returns all valid manifests sorted by ascending Seq. Unparsable or
// schema-mismatched manifests are skipped (and counted), not fatal: a torn
// manifest must never take down the registry scan.
func (r *Registry) List() []Manifest {
	entries, err := os.ReadDir(r.dir)
	if err != nil {
		return nil
	}
	var out []Manifest
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".manifest.json") || strings.HasPrefix(name, ".tmp.") {
			continue
		}
		id := strings.TrimSuffix(name, ".manifest.json")
		m, err := r.manifest(id)
		if err != nil {
			r.Metrics.invalid()
			if r.log != nil {
				r.log.Warn("registry: skipping invalid manifest", "file", name, "err", err)
			}
			continue
		}
		out = append(out, m)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Seq != out[j].Seq {
			return out[i].Seq < out[j].Seq
		}
		return out[i].ID < out[j].ID
	})
	return out
}

// Promote flips the CHAMPION pointer to id. The id must name a committed,
// verifiable bundle — promoting garbage is refused up front.
func (r *Registry) Promote(ctx context.Context, id string) error {
	if _, _, err := r.Get(id); err != nil {
		return fmt.Errorf("registry: refusing to promote %s: %w", id, err)
	}
	if err := r.writer.Publish(ctx, filepath.Join(r.dir, championFile), []byte(id+"\n")); err != nil {
		return fmt.Errorf("registry: promoting %s: %w", id, err)
	}
	r.Metrics.promote()
	if r.log != nil {
		r.log.Info("registry promote", "id", id)
	}
	return nil
}

// Champion resolves the currently promoted model: manifest + verified
// bundle. When the pointer is missing, stale or points at corrupt data, it
// falls back to the highest-seq valid full bundle — the last-good model —
// so a torn promotion can degrade but never blind the serving path.
func (r *Registry) Champion() (Manifest, []byte, error) {
	if data, err := os.ReadFile(filepath.Join(r.dir, championFile)); err == nil {
		id := strings.TrimSpace(string(data))
		if m, bundle, err := r.Get(id); err == nil {
			return m, bundle, nil
		} else if r.log != nil {
			r.log.Warn("registry: champion pointer invalid, falling back", "id", id, "err", err)
		}
	}
	// Fallback: newest valid bundle wins.
	list := r.List()
	for i := len(list) - 1; i >= 0; i-- {
		if m, bundle, err := r.Get(list[i].ID); err == nil {
			return m, bundle, nil
		}
	}
	return Manifest{}, nil, fmt.Errorf("registry: no servable model in %s", r.dir)
}

// LoadScrubber materializes the bundle behind an id as a core.Scrubber.
func (r *Registry) LoadScrubber(id string) (Manifest, *core.Scrubber, error) {
	m, bundle, err := r.Get(id)
	if err != nil {
		return Manifest{}, nil, err
	}
	s, err := core.Load(strings.NewReader(string(bundle)))
	if err != nil {
		return Manifest{}, nil, fmt.Errorf("registry: loading %s: %w", id, err)
	}
	return m, s, nil
}

// ExportClassifier re-serializes the bundle behind id without its WoE
// encoder — the Fig. 12 geographic transfer artifact. A bundle that is
// already classifier-only exports as-is.
func (r *Registry) ExportClassifier(id string) ([]byte, error) {
	m, bundle, err := r.Get(id)
	if err != nil {
		return nil, err
	}
	if m.Kind == core.BundleClassifierOnly {
		return bundle, nil
	}
	s, err := core.Load(strings.NewReader(string(bundle)))
	if err != nil {
		return nil, fmt.Errorf("registry: exporting %s: %w", id, err)
	}
	var buf strings.Builder
	if err := s.SaveClassifierOnly(&buf); err != nil {
		return nil, fmt.Errorf("registry: exporting %s: %w", id, err)
	}
	return []byte(buf.String()), nil
}

// ImportClassifier publishes a classifier-only bundle produced elsewhere.
// Full bundles are refused: importing another vantage point's WoE table
// would overwrite local knowledge, the exact thing §6.4 transfer avoids.
func (r *Registry) ImportClassifier(ctx context.Context, bundle []byte, meta Meta) (Manifest, error) {
	info, err := core.InspectBundle(bundle)
	if err != nil {
		return Manifest{}, fmt.Errorf("registry: rejecting import: %w", err)
	}
	if info.Kind != core.BundleClassifierOnly {
		return Manifest{}, fmt.Errorf("registry: refusing to import %s bundle (classifier-only required)", info.Kind)
	}
	if meta.Source == "" {
		meta.Source = SourceImported
	}
	return r.Publish(ctx, bundle, meta)
}

// ChampionID reads the raw promotion pointer, "" if absent. Unlike
// Champion it does not verify the bundle behind it — coordinators use it
// to name the export candidate cheaply; the export itself re-verifies.
func (r *Registry) ChampionID() string { return r.championID() }

// championID reads the raw promotion pointer, "" if absent.
func (r *Registry) championID() string {
	data, err := os.ReadFile(filepath.Join(r.dir, championFile))
	if err != nil {
		return ""
	}
	return strings.TrimSpace(string(data))
}

// GC removes old, unpinned, non-champion versions beyond the newest keep,
// plus orphan bundles (content without a committed manifest) and stale temp
// files. Returns the number of versions removed.
func (r *Registry) GC(keep int) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	champion := r.championID()
	list := r.List()
	removed := 0
	kept := 0
	for i := len(list) - 1; i >= 0; i-- {
		m := list[i]
		if m.ID == champion || m.Pinned {
			continue
		}
		if kept < keep {
			kept++
			continue
		}
		os.Remove(r.manifestPath(m.ID)) // manifest first: uncommit, then sweep
		os.Remove(r.bundlePath(m.ID))
		removed++
		if r.log != nil {
			r.log.Info("registry gc", "id", m.ID, "seq", m.Seq)
		}
	}
	// Orphans: bundle files whose manifest is gone or never committed.
	valid := make(map[string]bool, len(list))
	for _, m := range r.List() {
		valid[m.ID] = true
	}
	entries, _ := os.ReadDir(r.dir)
	for _, e := range entries {
		name := e.Name()
		if strings.HasPrefix(name, ".tmp.") {
			os.Remove(filepath.Join(r.dir, name))
			continue
		}
		if id, ok := strings.CutSuffix(name, ".bundle.json"); ok && !valid[id] {
			os.Remove(filepath.Join(r.dir, name))
		}
	}
	r.Metrics.gcRemoved(removed)
	return removed
}
