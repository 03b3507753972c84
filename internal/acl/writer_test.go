package acl

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"github.com/ixp-scrubber/ixpscrubber/internal/par"
)

func instantBackoff() *par.Backoff {
	return &par.Backoff{Base: time.Millisecond, Sleep: func(time.Duration) {}}
}

func TestWriterAtomicPublish(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "acl.txt")
	w := &Writer{Backoff: instantBackoff()}
	ctx := context.Background()
	if err := w.Publish(ctx, path, []byte("deny v1\n")); err != nil {
		t.Fatal(err)
	}
	if err := w.Publish(ctx, path, []byte("deny v2\n")); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "deny v2\n" {
		t.Fatalf("content = %q", got)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("temp files left behind: %v", entries)
	}
	if w.Writes.Load() != 2 || w.Retries.Load() != 0 {
		t.Fatalf("writes=%d retries=%d", w.Writes.Load(), w.Retries.Load())
	}
}

// flakyFS wraps OSFS and fails the first failWrites WriteFile calls after
// writing partial data — the torn-write fault the atomic protocol exists
// to mask.
type flakyFS struct {
	OSFS
	failWrites  int
	failRenames int
}

func (f *flakyFS) WriteFile(name string, data []byte, perm os.FileMode) error {
	if f.failWrites > 0 {
		f.failWrites--
		_ = os.WriteFile(name, data[:len(data)/2], perm) // torn write hits only the temp file
		return errors.New("scripted disk-full failure")
	}
	return f.OSFS.WriteFile(name, data, perm)
}

func (f *flakyFS) Rename(oldpath, newpath string) error {
	if f.failRenames > 0 {
		f.failRenames--
		return errors.New("scripted rename failure")
	}
	return f.OSFS.Rename(oldpath, newpath)
}

func TestWriterRetriesTornWrites(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "acl.txt")
	w := &Writer{Backoff: instantBackoff()}
	ctx := context.Background()
	if err := w.Publish(ctx, path, []byte("deny v1\n")); err != nil {
		t.Fatal(err)
	}

	w.FS = &flakyFS{failWrites: 2, failRenames: 1}
	if err := w.Publish(ctx, path, []byte("deny v2 complete\n")); err != nil {
		t.Fatal(err)
	}
	got, _ := os.ReadFile(path)
	if string(got) != "deny v2 complete\n" {
		t.Fatalf("content after retries = %q", got)
	}
	if w.Retries.Load() != 3 {
		t.Fatalf("Retries = %d, want 3", w.Retries.Load())
	}
	if entries, _ := os.ReadDir(dir); len(entries) != 1 {
		t.Fatalf("torn temp files left behind: %v", entries)
	}
}

func TestWriterGivesUpButKeepsOldFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "acl.txt")
	w := &Writer{Backoff: instantBackoff(), MaxAttempts: 3}
	ctx := context.Background()
	if err := w.Publish(ctx, path, []byte("deny v1\n")); err != nil {
		t.Fatal(err)
	}
	w.FS = &flakyFS{failWrites: 99}
	if err := w.Publish(ctx, path, []byte("deny v2\n")); err == nil {
		t.Fatal("Publish succeeded with a dead disk")
	}
	got, _ := os.ReadFile(path)
	if string(got) != "deny v1\n" {
		t.Fatalf("old ACL corrupted: %q", got)
	}
}

func TestWriterHonorsContext(t *testing.T) {
	dir := t.TempDir()
	w := &Writer{Backoff: instantBackoff()}
	w.FS = &flakyFS{failWrites: 99}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err := w.Publish(ctx, filepath.Join(dir, "acl.txt"), []byte("x"))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// recordFS records every WriteFile and Rename instead of touching a disk.
type recordFS struct {
	writes  []string
	perms   []os.FileMode
	renames [][2]string
}

func (f *recordFS) WriteFile(name string, data []byte, perm os.FileMode) error {
	f.writes = append(f.writes, name)
	f.perms = append(f.perms, perm)
	return nil
}

func (f *recordFS) Rename(oldpath, newpath string) error {
	f.renames = append(f.renames, [2]string{oldpath, newpath})
	return nil
}

func (f *recordFS) Remove(string) error { return nil }

// TestWriterTempFileBesideTarget checks the temp file sits in the target's
// directory (a rename is atomic only within one filesystem), is hidden from
// consumers globbing the directory, and is written world-readable.
func TestWriterTempFileBesideTarget(t *testing.T) {
	fsys := &recordFS{}
	w := &Writer{FS: fsys, Backoff: instantBackoff()}
	path := filepath.Join("acls", "edge1.txt")
	for i := 0; i < 2; i++ {
		if err := w.Publish(context.Background(), path, []byte("deny\n")); err != nil {
			t.Fatal(err)
		}
	}
	if len(fsys.writes) != 2 || len(fsys.renames) != 2 {
		t.Fatalf("writes=%v renames=%v", fsys.writes, fsys.renames)
	}
	for i, tmp := range fsys.writes {
		if filepath.Dir(tmp) != "acls" || !strings.HasPrefix(filepath.Base(tmp), ".tmp.edge1.txt.") {
			t.Errorf("temp file %q not a hidden sibling of %q", tmp, path)
		}
		if fsys.perms[i] != 0o644 {
			t.Errorf("temp file mode = %v, want 0644", fsys.perms[i])
		}
		if fsys.renames[i] != [2]string{tmp, path} {
			t.Errorf("rename %v, want %s -> %s", fsys.renames[i], tmp, path)
		}
	}
	if fsys.writes[0] == fsys.writes[1] {
		t.Errorf("two publishes reused temp name %q", fsys.writes[0])
	}
}
