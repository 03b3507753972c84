package bgp

import (
	"context"
	"fmt"
	"log/slog"
	"net/netip"
	"sort"
	"sync"
	"sync/atomic"

	"github.com/ixp-scrubber/ixpscrubber/internal/obs"
	"github.com/ixp-scrubber/ixpscrubber/internal/par"
)

// DefaultMaxAttempts bounds how many session (re)establishments a single
// Announce/Withdraw call will try before giving up.
const DefaultMaxAttempts = 8

// Persistent maintains a member's BGP session to the route server across
// failures. It tracks the member's desired blackhole state (the set of
// prefixes that should currently be announced) and, whenever the session has
// to be re-established, replays that state onto the fresh session — the
// member-side half of BGP's implicit contract that routes from a dead
// session are gone and must be re-announced.
//
// All methods serialize on an internal mutex; reconnects use capped
// exponential backoff, so a flapping route server is not redialed in a
// tight loop.
type Persistent struct {
	// Addr is the route server address, dialed on demand.
	Addr string
	// Local is this member's OPEN message.
	Local Open
	// Backoff paces reconnect attempts. Nil means the zero par.Backoff's
	// defaults.
	// The backoff's Sleep hook is what makes chaos tests instantaneous.
	Backoff *par.Backoff
	// MaxAttempts bounds session establishments per operation; 0 means
	// DefaultMaxAttempts.
	MaxAttempts int
	// Dialer overrides the session dial, e.g. to script failures in tests.
	// Nil means Dial.
	Dialer func(ctx context.Context, addr string, local Open) (*Conn, error)
	// OnSession, when non-nil, observes every established session.
	OnSession func(c *Conn)
	Log       *slog.Logger

	mu      sync.Mutex
	conn    *Conn
	desired map[netip.Prefix]netip.Addr // prefix -> next hop to re-announce
	everUp  bool

	reconnects atomic.Uint64 // sessions established beyond the first
	sendFails  atomic.Uint64 // sends that lost a session
	dialFails  atomic.Uint64 // dial/handshake attempts that failed
}

// Reconnects returns how many times the session was re-established after
// the initial connect.
func (p *Persistent) Reconnects() uint64 { return p.reconnects.Load() }

// SendFailures returns how many sends hit a dead session.
func (p *Persistent) SendFailures() uint64 { return p.sendFails.Load() }

// DialFailures returns how many session establishment attempts failed.
func (p *Persistent) DialFailures() uint64 { return p.dialFails.Load() }

// DesiredCount returns the number of prefixes this member currently wants
// announced.
func (p *Persistent) DesiredCount() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.desired)
}

// RegisterMetrics exposes the member session's failure counters, labeled
// with the member name.
func (p *Persistent) RegisterMetrics(r *obs.Registry, member string) {
	u64 := func(a *atomic.Uint64) func() float64 {
		return func() float64 { return float64(a.Load()) }
	}
	r.CounterVec("ixps_bgp_member_reconnects_total",
		"Member sessions re-established after a drop.", "member").
		WithFunc(u64(&p.reconnects), member)
	r.CounterVec("ixps_bgp_member_send_failures_total",
		"Member updates that hit a dead session and forced a reconnect.", "member").
		WithFunc(u64(&p.sendFails), member)
	r.CounterVec("ixps_bgp_member_dial_failures_total",
		"Member session establishment attempts that failed.", "member").
		WithFunc(u64(&p.dialFails), member)
	r.GaugeVec("ixps_bgp_member_desired_prefixes",
		"Prefixes the member currently wants blackholed.", "member").
		WithFunc(func() float64 { return float64(p.DesiredCount()) }, member)
}

func (p *Persistent) maxAttempts() int {
	if p.MaxAttempts > 0 {
		return p.MaxAttempts
	}
	return DefaultMaxAttempts
}

func (p *Persistent) dial(ctx context.Context) (*Conn, error) {
	if p.Dialer != nil {
		return p.Dialer(ctx, p.Addr, p.Local)
	}
	return Dial(ctx, p.Addr, p.Local)
}

func (p *Persistent) backoff() *par.Backoff {
	if p.Backoff == nil {
		p.Backoff = &par.Backoff{}
	}
	return p.Backoff
}

// Connect establishes the session eagerly. Operations connect on demand, so
// calling Connect is optional but surfaces configuration errors early.
func (p *Persistent) Connect(ctx context.Context) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	_, err := p.ensureLocked(ctx)
	return err
}

// ensureLocked guarantees a live session, dialing with backoff if needed.
// It returns fresh=true when it just established a session (and therefore
// already replayed the desired announcements onto it).
func (p *Persistent) ensureLocked(ctx context.Context) (fresh bool, err error) {
	if p.conn != nil {
		return false, nil
	}
	bo := p.backoff()
	for attempt := 0; attempt < p.maxAttempts(); attempt++ {
		if err := ctx.Err(); err != nil {
			return false, err
		}
		c, err := p.dial(ctx)
		if err != nil {
			p.dialFails.Add(1)
			if p.Log != nil {
				p.Log.Warn("bgp member dial failed", "addr", p.Addr, "err", err)
			}
			if werr := bo.Wait(ctx); werr != nil {
				return false, werr
			}
			continue
		}
		if err := p.replay(c); err != nil {
			c.Close()
			p.sendFails.Add(1)
			if werr := bo.Wait(ctx); werr != nil {
				return false, werr
			}
			continue
		}
		bo.Reset()
		p.conn = c
		if p.everUp {
			p.reconnects.Add(1)
			if p.Log != nil {
				p.Log.Info("bgp member session re-established", "addr", p.Addr,
					"replayed", len(p.desired))
			}
		}
		p.everUp = true
		if p.OnSession != nil {
			p.OnSession(c)
		}
		return true, nil
	}
	return false, fmt.Errorf("bgp: %s unreachable after %d attempts", p.Addr, p.maxAttempts())
}

// replay re-announces the full desired blackhole state on a fresh session,
// in deterministic prefix order.
func (p *Persistent) replay(c *Conn) error {
	prefixes := make([]netip.Prefix, 0, len(p.desired))
	for pfx := range p.desired {
		prefixes = append(prefixes, pfx)
	}
	sort.Slice(prefixes, func(i, j int) bool {
		a, b := prefixes[i], prefixes[j]
		if cmp := a.Addr().Compare(b.Addr()); cmp != 0 {
			return cmp < 0
		}
		return a.Bits() < b.Bits()
	})
	for _, pfx := range prefixes {
		if err := c.AnnounceBlackhole(pfx, p.desired[pfx]); err != nil {
			return err
		}
	}
	return nil
}

// teardownLocked discards the current session after a failure.
func (p *Persistent) teardownLocked() {
	if p.conn != nil {
		p.conn.Close()
		p.conn = nil
	}
}

// Kill drops the current session without touching desired state — the
// member's hold timer firing, or a test scripting a session loss. The next
// operation reconnects and replays.
func (p *Persistent) Kill() {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.teardownLocked()
}

// Close tears the session down for good.
func (p *Persistent) Close() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.teardownLocked()
	return nil
}

// Announce records prefix as desired and announces it, re-establishing the
// session as needed. The prefix joins the desired state immediately: even
// if the call errors, a later successful reconnect replays it — transient
// failures never erase the member's intent.
func (p *Persistent) Announce(ctx context.Context, prefix netip.Prefix, nextHop netip.Addr) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.desired == nil {
		p.desired = make(map[netip.Prefix]netip.Addr)
	}
	p.desired[prefix] = nextHop
	for attempt := 0; attempt < p.maxAttempts(); attempt++ {
		fresh, err := p.ensureLocked(ctx)
		if err != nil {
			return err
		}
		if fresh {
			return nil // the replay announced it
		}
		if err := p.conn.AnnounceBlackhole(prefix, nextHop); err == nil {
			return nil
		}
		p.sendFails.Add(1)
		p.teardownLocked()
	}
	return fmt.Errorf("bgp: announcing %s: session kept failing", prefix)
}

// Withdraw removes prefix from the desired state and withdraws it. Unlike
// Announce, a fresh session still needs the explicit withdraw: the route
// server's registry remembers announcements from the previous session.
func (p *Persistent) Withdraw(ctx context.Context, prefix netip.Prefix) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	delete(p.desired, prefix)
	for attempt := 0; attempt < p.maxAttempts(); attempt++ {
		if _, err := p.ensureLocked(ctx); err != nil {
			return err
		}
		if err := p.conn.WithdrawBlackhole(prefix); err == nil {
			return nil
		}
		p.sendFails.Add(1)
		p.teardownLocked()
	}
	return fmt.Errorf("bgp: withdrawing %s: session kept failing", prefix)
}
