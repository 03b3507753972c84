package acl

import (
	"context"
	"fmt"
	"log/slog"
	"os"
	"path/filepath"
	"strconv"
	"sync/atomic"

	"github.com/ixp-scrubber/ixpscrubber/internal/par"
)

// FS abstracts the handful of filesystem operations Writer needs, so fault
// injection can script partial writes and transient errors without touching
// a real disk. OSFS is the production implementation.
type FS interface {
	WriteFile(name string, data []byte, perm os.FileMode) error
	Rename(oldpath, newpath string) error
	Remove(name string) error
}

// OSFS is the real filesystem.
type OSFS struct{}

func (OSFS) WriteFile(name string, data []byte, perm os.FileMode) error {
	return os.WriteFile(name, data, perm)
}
func (OSFS) Rename(oldpath, newpath string) error { return os.Rename(oldpath, newpath) }
func (OSFS) Remove(name string) error             { return os.Remove(name) }

// Writer publishes ACL files atomically: the rendered text goes to a
// temporary file in the target's directory, which is then renamed over the
// destination. A consumer (the switch-config pusher tailing the file) can
// never observe a torn ACL — it sees the old complete file or the new
// complete file, nothing in between. Failed writes are retried with capped
// exponential backoff.
type Writer struct {
	// FS is the filesystem; nil means OSFS.
	FS FS
	// Backoff paces retries. Nil means the zero par.Backoff's defaults.
	Backoff *par.Backoff
	// MaxAttempts bounds write attempts per Publish; 0 means 5.
	MaxAttempts int
	Log         *slog.Logger

	// Writes counts successful publishes; Retries counts failed attempts
	// that were retried.
	Writes  atomic.Uint64
	Retries atomic.Uint64

	seq atomic.Uint64 // distinguishes temp names across retries and callers
}

func (w *Writer) fs() FS {
	if w.FS != nil {
		return w.FS
	}
	return OSFS{}
}

func (w *Writer) maxAttempts() int {
	if w.MaxAttempts > 0 {
		return w.MaxAttempts
	}
	return 5
}

// Publish writes data to path atomically, retrying transient failures.
// On success the destination holds exactly data; on failure the previous
// destination content (if any) is untouched.
func (w *Writer) Publish(ctx context.Context, path string, data []byte) error {
	if w.Backoff == nil {
		w.Backoff = &par.Backoff{}
	}
	fsys := w.fs()
	var lastErr error
	for attempt := 0; attempt < w.maxAttempts(); attempt++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		if attempt > 0 {
			w.Retries.Add(1)
			if err := w.Backoff.Wait(ctx); err != nil {
				return err
			}
		}
		tmp := filepath.Join(filepath.Dir(path),
			".tmp."+filepath.Base(path)+"."+strconv.FormatUint(w.seq.Add(1), 10))
		if err := fsys.WriteFile(tmp, data, 0o644); err != nil {
			lastErr = err
			fsys.Remove(tmp) // a partial temp file is garbage; best-effort cleanup
			if w.Log != nil {
				w.Log.Warn("acl write failed", "path", path, "attempt", attempt, "err", err)
			}
			continue
		}
		if err := fsys.Rename(tmp, path); err != nil {
			lastErr = err
			fsys.Remove(tmp)
			if w.Log != nil {
				w.Log.Warn("acl rename failed", "path", path, "attempt", attempt, "err", err)
			}
			continue
		}
		w.Backoff.Reset()
		w.Writes.Add(1)
		return nil
	}
	return fmt.Errorf("acl: publishing %s: %w", path, lastErr)
}
