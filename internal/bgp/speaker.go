package bgp

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/netip"
	"sync"
	"time"

	"github.com/ixp-scrubber/ixpscrubber/internal/par"
)

// Conn wraps a TCP connection carrying a BGP session. It handles the
// OPEN/KEEPALIVE handshake and message framing; higher layers exchange
// decoded Messages.
type Conn struct {
	conn    net.Conn
	r       *bufio.Reader
	wmu     sync.Mutex
	peer    *Open // the remote's OPEN, set after handshake
	local   Open
	scratch []byte
}

// NewConn wraps an established network connection. The caller must run
// Handshake before exchanging updates.
func NewConn(nc net.Conn, local Open) *Conn {
	return &Conn{conn: nc, r: bufio.NewReaderSize(nc, 1<<16), local: local}
}

// Peer returns the remote's OPEN message (nil before handshake).
func (c *Conn) Peer() *Open { return c.peer }

// Close closes the underlying connection.
func (c *Conn) Close() error { return c.conn.Close() }

// Handshake sends our OPEN, waits for the peer's OPEN, and exchanges the
// initial KEEPALIVEs (RFC 4271 FSM, collapsed for a point-to-point lab
// session).
func (c *Conn) Handshake() error {
	buf, err := AppendOpen(nil, &c.local)
	if err != nil {
		return fmt.Errorf("bgp: encoding open: %w", err)
	}
	if _, err := c.conn.Write(buf); err != nil {
		return fmt.Errorf("bgp: sending open: %w", err)
	}
	msg, err := c.Read()
	if err != nil {
		return fmt.Errorf("bgp: waiting for open: %w", err)
	}
	if msg.Type != TypeOpen {
		return fmt.Errorf("bgp: expected OPEN, got type %d", msg.Type)
	}
	c.peer = msg.Open
	if _, err := c.conn.Write(AppendKeepalive(nil)); err != nil {
		return fmt.Errorf("bgp: sending keepalive: %w", err)
	}
	msg, err = c.Read()
	if err != nil {
		return fmt.Errorf("bgp: waiting for keepalive: %w", err)
	}
	if msg.Type != TypeKeepalive {
		return fmt.Errorf("bgp: expected KEEPALIVE, got type %d", msg.Type)
	}
	return nil
}

// Read returns the next decoded message from the peer.
func (c *Conn) Read() (*Message, error) {
	var hdr [headerLen]byte
	if _, err := io.ReadFull(c.r, hdr[:]); err != nil {
		return nil, err
	}
	length := int(uint16(hdr[16])<<8 | uint16(hdr[17]))
	if length < headerLen || length > maxMsgLen {
		return nil, fmt.Errorf("%w: %d", ErrBadLength, length)
	}
	if cap(c.scratch) < length {
		c.scratch = make([]byte, length)
	}
	buf := c.scratch[:length]
	copy(buf, hdr[:])
	if _, err := io.ReadFull(c.r, buf[headerLen:]); err != nil {
		return nil, fmt.Errorf("bgp: reading body: %w", err)
	}
	msg, _, err := Decode(buf)
	return msg, err
}

// SendUpdate encodes and writes an UPDATE.
func (c *Conn) SendUpdate(u *Update) error {
	buf, err := AppendUpdate(nil, u)
	if err != nil {
		return err
	}
	c.wmu.Lock()
	defer c.wmu.Unlock()
	if _, err := c.conn.Write(buf); err != nil {
		return fmt.Errorf("bgp: sending update: %w", err)
	}
	return nil
}

// SendRaw writes a pre-encoded BGP message (e.g. a FlowSpec update built
// with AppendFlowSpecUpdate, whose multiprotocol attributes the basic
// Update model does not carry).
func (c *Conn) SendRaw(msg []byte) error {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	if _, err := c.conn.Write(msg); err != nil {
		return fmt.Errorf("bgp: sending raw message: %w", err)
	}
	return nil
}

// ReadRaw returns the next message's raw bytes (header included) without
// interpreting the body beyond framing. The returned slice is only valid
// until the next Read/ReadRaw.
func (c *Conn) ReadRaw() ([]byte, error) {
	var hdr [headerLen]byte
	if _, err := io.ReadFull(c.r, hdr[:]); err != nil {
		return nil, err
	}
	length := int(uint16(hdr[16])<<8 | uint16(hdr[17]))
	if length < headerLen || length > maxMsgLen {
		return nil, fmt.Errorf("%w: %d", ErrBadLength, length)
	}
	if cap(c.scratch) < length {
		c.scratch = make([]byte, length)
	}
	buf := c.scratch[:length]
	copy(buf, hdr[:])
	if _, err := io.ReadFull(c.r, buf[headerLen:]); err != nil {
		return nil, fmt.Errorf("bgp: reading body: %w", err)
	}
	return buf, nil
}

// SendKeepalive writes a KEEPALIVE.
func (c *Conn) SendKeepalive() error {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	_, err := c.conn.Write(AppendKeepalive(nil))
	return err
}

// RouteServer is a minimal IXP route server: it accepts BGP sessions from
// member networks, reflects every UPDATE to all other members, and feeds
// blackhole announcements into a Registry — the role the IXP's route server
// plays in Figure 2 of the paper.
type RouteServer struct {
	ASN      uint16
	RouterID [4]byte
	Registry *Registry
	Log      *slog.Logger
	// Clock returns the current unix time; overridable for tests and
	// simulation. Defaults to time.Now().Unix.
	Clock func() int64
	// Metrics instruments the session lifecycle and update stream; nil
	// disables instrumentation. Set via RegisterMetrics before Serve.
	Metrics *ServerMetrics
	// AcceptBackoff paces retries after transient Accept failures (e.g.
	// EMFILE under fd pressure) instead of tearing the server down. Nil
	// means the zero par.Backoff's defaults. DefaultMaxAttempts consecutive
	// failures are treated as a dead listener.
	AcceptBackoff *par.Backoff

	ln      net.Listener
	mu      sync.Mutex
	peers   map[*Conn]struct{}
	conns   map[net.Conn]struct{}    // every accepted conn, incl. mid-handshake
	rib     map[netip.Prefix]*Update // currently-announced routes, replayed to new peers
	wg      sync.WaitGroup
	closing bool
}

// Serve accepts sessions on ln until the context is canceled or the
// listener fails. It always closes ln before returning.
func (s *RouteServer) Serve(ctx context.Context, ln net.Listener) error {
	if s.Registry == nil {
		s.Registry = NewRegistry()
	}
	if s.Clock == nil {
		s.Clock = func() int64 { return time.Now().Unix() }
	}
	if s.Log == nil {
		s.Log = slog.Default()
	}
	s.ln = ln
	s.peers = make(map[*Conn]struct{})
	s.conns = make(map[net.Conn]struct{})
	s.rib = make(map[netip.Prefix]*Update)

	done := make(chan struct{})
	defer close(done)
	go func() {
		select {
		case <-ctx.Done():
		case <-done:
		}
		s.mu.Lock()
		s.closing = true
		s.mu.Unlock()
		ln.Close()
	}()

	if s.AcceptBackoff == nil {
		s.AcceptBackoff = &par.Backoff{}
	}
	for {
		nc, err := ln.Accept()
		if err != nil {
			s.mu.Lock()
			closing := s.closing
			s.mu.Unlock()
			// A transient accept failure (fd exhaustion, aborted connection)
			// must not take the route server down with it: back off and keep
			// accepting. Only a closed listener or a persistent failure ends
			// the serve loop.
			if !closing && !errors.Is(err, net.ErrClosed) &&
				s.AcceptBackoff.Attempt() < DefaultMaxAttempts {
				s.Metrics.acceptRetried()
				s.Log.Warn("bgp accept failed, retrying", "err", err)
				if werr := s.AcceptBackoff.Wait(ctx); werr == nil {
					continue
				}
			}
			s.mu.Lock()
			closing = s.closing
			for nc := range s.conns {
				nc.Close()
			}
			s.mu.Unlock()
			s.wg.Wait()
			if closing || errors.Is(err, net.ErrClosed) || ctx.Err() != nil {
				return nil
			}
			return fmt.Errorf("bgp: accept: %w", err)
		}
		s.AcceptBackoff.Reset()
		s.mu.Lock()
		if s.closing {
			s.mu.Unlock()
			nc.Close()
			continue
		}
		s.conns[nc] = struct{}{}
		s.mu.Unlock()
		s.wg.Add(1)
		go s.serveConn(nc)
	}
}

func (s *RouteServer) serveConn(nc net.Conn) {
	defer s.wg.Done()
	// A panic while serving one member (malformed update tripping a decode
	// bug, a failing registry hook) must not crash the exchange's whole
	// route server: isolate it to this session.
	defer func() {
		if r := recover(); r != nil {
			s.Metrics.sessionPanicked()
			s.Log.Error("bgp session panicked", "peer", nc.RemoteAddr(), "panic", r)
			nc.Close()
		}
	}()
	defer func() {
		s.mu.Lock()
		delete(s.conns, nc)
		s.mu.Unlock()
	}()
	conn := NewConn(nc, Open{ASN: s.ASN, HoldTime: 90, RouterID: s.RouterID})
	defer conn.Close()
	if err := conn.Handshake(); err != nil {
		s.Metrics.handshakeFailed()
		s.Log.Warn("bgp handshake failed", "peer", nc.RemoteAddr(), "err", err)
		return
	}
	// Registration and RIB replay happen under one critical section so a
	// route is delivered to a new peer exactly once: either its session was
	// registered before an update's peer snapshot (reflected) or the update
	// was in the RIB before the replay snapshot (replayed).
	s.mu.Lock()
	s.peers[conn] = struct{}{}
	replay := make([]*Update, 0, len(s.rib))
	for _, u := range s.rib {
		replay = append(replay, u)
	}
	s.mu.Unlock()
	s.Metrics.sessionUp()
	defer func() {
		s.Metrics.sessionDown()
		s.mu.Lock()
		delete(s.peers, conn)
		s.mu.Unlock()
	}()
	s.Log.Info("bgp session established", "peer", nc.RemoteAddr(), "asn", conn.Peer().ASN)
	for _, u := range replay {
		if err := conn.SendUpdate(u); err != nil {
			s.Log.Warn("bgp rib replay failed", "peer", nc.RemoteAddr(), "err", err)
			return
		}
	}

	for {
		msg, err := conn.Read()
		if err != nil {
			if !errors.Is(err, io.EOF) && !errors.Is(err, net.ErrClosed) {
				s.Log.Warn("bgp session ended", "peer", nc.RemoteAddr(), "err", err)
			}
			return
		}
		switch msg.Type {
		case TypeUpdate:
			s.Metrics.update(msg.Update)
			s.Registry.ApplyUpdate(msg.Update, s.Clock())
			s.reflect(conn, msg.Update)
		case TypeKeepalive:
			// Hold timer handling is out of scope for the lab server.
		case TypeNotification:
			s.Metrics.notification()
			s.Log.Warn("bgp notification", "peer", nc.RemoteAddr(), "code", msg.Notification.Code)
			return
		}
	}
}

// reflect stores the update in the RIB and forwards it to every session
// except the originator.
func (s *RouteServer) reflect(from *Conn, u *Update) {
	s.mu.Lock()
	for _, p := range u.Withdrawn {
		delete(s.rib, p.Masked())
	}
	for _, p := range u.NLRI {
		s.rib[p.Masked()] = u
	}
	peers := make([]*Conn, 0, len(s.peers))
	for p := range s.peers {
		if p != from {
			peers = append(peers, p)
		}
	}
	s.mu.Unlock()
	for _, p := range peers {
		if err := p.SendUpdate(u); err != nil {
			s.Metrics.reflectFailed()
			s.Log.Warn("bgp reflect failed", "err", err)
		}
	}
}

// Dial connects to a route server and completes the handshake.
func Dial(ctx context.Context, addr string, local Open) (*Conn, error) {
	var d net.Dialer
	nc, err := d.DialContext(ctx, "tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("bgp: dial %s: %w", addr, err)
	}
	conn := NewConn(nc, local)
	if err := conn.Handshake(); err != nil {
		nc.Close()
		return nil, err
	}
	return conn, nil
}

// AnnounceBlackhole sends an UPDATE announcing prefix with the BLACKHOLE
// community attached, as a member router would to drop attack traffic.
func (c *Conn) AnnounceBlackhole(prefix netip.Prefix, nextHop netip.Addr) error {
	return c.SendUpdate(&Update{
		Origin:      0,
		ASPath:      []uint16{c.local.ASN},
		NextHop:     nextHop,
		Communities: []Community{BlackholeCommunity, NoExportCommunity},
		NLRI:        []netip.Prefix{prefix},
	})
}

// WithdrawBlackhole sends an UPDATE withdrawing prefix.
func (c *Conn) WithdrawBlackhole(prefix netip.Prefix) error {
	return c.SendUpdate(&Update{Withdrawn: []netip.Prefix{prefix}})
}
