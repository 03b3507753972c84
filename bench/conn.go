package main

import (
	"net"
	"os"
	"sync"
	"sync/atomic"
	"time"
)

// ringCap is the in-memory socket buffer, in datagrams. 256 datagrams of
// ~3 KB is a tuned-up UDP receive buffer (~800 KB); the driver blocks when
// it is full, which is what makes the loop closed.
const ringCap = 256

var ringAddr net.Addr = &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1), Port: 6343}

// ringConn is the benchmark-owned net.PacketConn handed to the collector
// through segment.Env.ListenPacket: a bounded ring of datagrams with a
// single copy in ReadFrom — a socket buffer without the kernel. No link
// or loopback is measured.
//
// The read deadline is virtual. The collector arms it only while a partial
// batch is pending; it expires once the driver has declared the minute's
// burst over (endBurst) and the ring is drained, never mid-burst. So the
// idle flush fires exactly once per minute, batch counts repeat exactly,
// and no run waits out a wall-clock flush interval.
type ringConn struct {
	ch        chan []byte
	wake      chan struct{} // pokes a blocked reader after endBurst
	done      chan struct{}
	closeOnce sync.Once

	armed atomic.Bool // reader side: a read deadline is set
	idle  atomic.Bool // driver side: the burst is over

	// Blocked-reader accounting, restricted to timed windows: a reader that
	// blocked before the window opened is charged from the window's start.
	windowOpen  atomic.Bool
	windowStart atomic.Int64 // unix nanos
	blockedNS   atomic.Int64
	fullWaits   atomic.Uint64 // sends that found the ring full (driver blocked)
}

func newRingConn() *ringConn {
	return &ringConn{
		ch:   make(chan []byte, ringCap), // the socket buffer itself
		wake: make(chan struct{}, 1),
		done: make(chan struct{}),
	}
}

// send hands one datagram to the socket, blocking while the ring is full.
func (c *ringConn) send(d []byte) {
	select {
	case c.ch <- d:
		return
	default:
	}
	c.fullWaits.Add(1)
	select {
	case c.ch <- d:
	case <-c.done:
	}
}

// beginBurst opens a timed window: a new minute's datagrams follow.
func (c *ringConn) beginBurst(now time.Time) {
	c.idle.Store(false)
	c.windowStart.Store(now.UnixNano())
	c.windowOpen.Store(true)
}

// endBurst declares the minute handed over; a pending idle flush may fire
// once the ring drains.
func (c *ringConn) endBurst() {
	c.idle.Store(true)
	select {
	case c.wake <- struct{}{}:
	default:
	}
}

// closeWindow stops blocked-time accounting (the minute settled).
func (c *ringConn) closeWindow() { c.windowOpen.Store(false) }

func (c *ringConn) ReadFrom(p []byte) (int, net.Addr, error) {
	select {
	case d := <-c.ch:
		return copy(p, d), ringAddr, nil
	default:
	}
	t0 := time.Now().UnixNano()
	defer func() {
		if c.windowOpen.Load() {
			from := t0
			if ws := c.windowStart.Load(); ws > from {
				from = ws
			}
			if d := time.Now().UnixNano() - from; d > 0 {
				c.blockedNS.Add(d)
			}
		}
	}()
	for {
		// Read the flags before looking into the ring: the driver enqueues
		// the minute's last datagram before it sets idle, so a ring found
		// empty after idle was seen set is drained for good.
		expired := c.armed.Load() && c.idle.Load()
		select {
		case d := <-c.ch:
			return copy(p, d), ringAddr, nil
		default:
		}
		if expired {
			return 0, nil, os.ErrDeadlineExceeded
		}
		select {
		case d := <-c.ch:
			return copy(p, d), ringAddr, nil
		case <-c.wake:
		case <-c.done:
			return 0, nil, net.ErrClosed
		}
	}
}

func (c *ringConn) WriteTo(p []byte, _ net.Addr) (int, error) { return len(p), nil }

func (c *ringConn) Close() error {
	c.closeOnce.Do(func() { close(c.done) })
	return nil
}

func (c *ringConn) LocalAddr() net.Addr { return ringAddr }

func (c *ringConn) SetDeadline(t time.Time) error { return c.SetReadDeadline(t) }

func (c *ringConn) SetReadDeadline(t time.Time) error {
	c.armed.Store(!t.IsZero())
	return nil
}

func (c *ringConn) SetWriteDeadline(time.Time) error { return nil }
