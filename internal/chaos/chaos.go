// Package chaos is a seeded, fully deterministic fault-injection harness
// for the complete scrubber pipeline. It drives the same production path
// cmd/scrubberd runs — sFlow collector -> bounded ingest queue -> online
// balancer -> sliding window -> two-step model -> atomic ACL writer, with
// blackhole labels learned over real BGP sessions — through scripted fault
// scenarios: truncated and garbage datagrams, collector socket errors,
// BGP session drops and withdraw storms, stuck downstream consumers,
// exporter clock skew, torn ACL writes, label-hook panics, and mid-run
// crash/restart from a checkpoint.
//
// Determinism is the point: every run of a scenario produces bit-identical
// balanced-stream digests, classifications and ACL text, so tests can
// assert not only that the pipeline survives a fault but exactly what the
// fault cost. Three mechanisms make that possible:
//
//   - virtual time (Clock) — record timestamps, registry windows and the
//     training schedule advance in lock step with the script, never with
//     the wall clock;
//   - an in-memory packet conn (PacketConn) — datagrams arrive in
//     injection order with no UDP loss, read deadlines resolve instantly
//     and socket errors happen exactly where scripted;
//   - lock-step settling — the harness drains the collector and the
//     ingest queue between simulated minutes, so batch boundaries (and
//     therefore drop decisions under backpressure) are reproducible.
//
// The package is test support: no production package imports it, so the
// reachability gate (reach_test.go) roots all of its declarations instead
// of asking a main to reach them.
package chaos

import (
	"context"
	"sync"
)

// Clock is a shared virtual clock in unix seconds. The harness advances it
// once per simulated minute; the collector, the registry's route server and
// the pipeline's window pruning all read it through Now.
type Clock struct {
	mu  sync.Mutex
	now int64
}

// Set moves the clock to t.
func (c *Clock) Set(t int64) {
	c.mu.Lock()
	c.now = t
	c.mu.Unlock()
}

// Now returns the current virtual time.
func (c *Clock) Now() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

// Gate stalls the pipeline's queue consumer to model a stuck downstream
// stage. While closed, Wait blocks every consume; Open releases them. The
// zero Gate is open.
type Gate struct {
	mu sync.Mutex
	ch chan struct{} // non-nil while closed; closing it reopens the gate
}

// Close starts stalling waiters. Closing an already-closed gate is a no-op.
func (g *Gate) Close() {
	g.mu.Lock()
	if g.ch == nil {
		g.ch = make(chan struct{})
	}
	g.mu.Unlock()
}

// Open releases all waiters. Opening an open gate is a no-op.
func (g *Gate) Open() {
	g.mu.Lock()
	if g.ch != nil {
		close(g.ch)
		g.ch = nil
	}
	g.mu.Unlock()
}

// Wait blocks while the gate is closed (or until ctx ends).
func (g *Gate) Wait(ctx context.Context) {
	g.mu.Lock()
	ch := g.ch
	g.mu.Unlock()
	if ch == nil {
		return
	}
	select {
	case <-ch:
	case <-ctx.Done():
	}
}
