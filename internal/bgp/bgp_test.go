package bgp

import (
	"context"
	"errors"
	"net"
	"net/netip"
	"testing"
	"testing/quick"
	"time"
)

func TestCommunityPacking(t *testing.T) {
	c := Community(65535<<16 | 666)
	if c != BlackholeCommunity {
		t.Fatalf("65535:666 = %v, want BlackholeCommunity", c)
	}
	if c.ASN() != 65535 || c.Value() != 666 {
		t.Errorf("ASN/Value = %d/%d", c.ASN(), c.Value())
	}
	if c.String() != "65535:666" {
		t.Errorf("String = %q", c.String())
	}
}

func TestOpenRoundTrip(t *testing.T) {
	o := Open{ASN: 64500, HoldTime: 90, RouterID: [4]byte{10, 0, 0, 1}}
	buf, err := AppendOpen(nil, &o)
	if err != nil {
		t.Fatal(err)
	}
	msg, n, err := Decode(buf)
	if err != nil {
		t.Fatal(err)
	}
	if n != len(buf) {
		t.Errorf("consumed %d of %d", n, len(buf))
	}
	if msg.Type != TypeOpen || msg.Open == nil {
		t.Fatalf("msg = %+v", msg)
	}
	got := *msg.Open
	if got.ASN != o.ASN || got.HoldTime != o.HoldTime || got.RouterID != o.RouterID || got.Version != 4 {
		t.Errorf("open = %+v, want %+v", got, o)
	}
}

func TestUpdateRoundTrip(t *testing.T) {
	u := Update{
		Withdrawn: []netip.Prefix{netip.MustParsePrefix("203.0.113.0/24")},
		Origin:    0,
		ASPath:    []uint16{64500, 64501},
		NextHop:   netip.MustParseAddr("10.0.0.9"),
		Communities: []Community{
			BlackholeCommunity,
			NoExportCommunity,
			Community(64500<<16 | 1),
		},
		NLRI: []netip.Prefix{
			netip.MustParsePrefix("198.51.100.7/32"),
			netip.MustParsePrefix("198.51.100.0/25"),
		},
	}
	buf, err := AppendUpdate(nil, &u)
	if err != nil {
		t.Fatal(err)
	}
	msg, _, err := Decode(buf)
	if err != nil {
		t.Fatal(err)
	}
	if msg.Type != TypeUpdate || msg.Update == nil {
		t.Fatalf("msg = %+v", msg)
	}
	got := msg.Update
	if len(got.Withdrawn) != 1 || got.Withdrawn[0] != u.Withdrawn[0] {
		t.Errorf("withdrawn = %v", got.Withdrawn)
	}
	if len(got.NLRI) != 2 || got.NLRI[0] != u.NLRI[0] || got.NLRI[1] != u.NLRI[1] {
		t.Errorf("nlri = %v", got.NLRI)
	}
	if got.NextHop != u.NextHop {
		t.Errorf("next hop = %v", got.NextHop)
	}
	if len(got.ASPath) != 2 || got.ASPath[0] != 64500 || got.ASPath[1] != 64501 {
		t.Errorf("as path = %v", got.ASPath)
	}
	if len(got.Communities) != 3 {
		t.Fatalf("communities = %v", got.Communities)
	}
	if !got.IsBlackhole() {
		t.Error("IsBlackhole lost")
	}
}

func TestUpdateWithoutBlackholeCommunity(t *testing.T) {
	u := Update{
		NextHop: netip.MustParseAddr("10.0.0.9"),
		NLRI:    []netip.Prefix{netip.MustParsePrefix("192.0.2.0/24")},
	}
	buf, err := AppendUpdate(nil, &u)
	if err != nil {
		t.Fatal(err)
	}
	msg, _, err := Decode(buf)
	if err != nil {
		t.Fatal(err)
	}
	if msg.Update.IsBlackhole() {
		t.Error("plain announcement marked as blackhole")
	}
}

func TestKeepaliveAndNotification(t *testing.T) {
	buf := AppendKeepalive(nil)
	msg, _, err := Decode(buf)
	if err != nil || msg.Type != TypeKeepalive {
		t.Fatalf("keepalive: %v %+v", err, msg)
	}
	nbuf, err := finishMessage(append(appendHeader(nil, TypeNotification), 6, 2, 'b', 'y', 'e'))
	if err != nil {
		t.Fatal(err)
	}
	msg, _, err = Decode(nbuf)
	if err != nil || msg.Notification == nil {
		t.Fatalf("notification: %v %+v", err, msg)
	}
	if msg.Notification.Code != 6 || string(msg.Notification.Data) != "bye" {
		t.Errorf("notification = %+v", msg.Notification)
	}
	if msg.Notification.Error() == "" {
		t.Error("Error() empty")
	}
}

func TestDecodeErrors(t *testing.T) {
	if _, _, err := Decode([]byte{1, 2, 3}); !errors.Is(err, ErrTruncated) {
		t.Errorf("short input: %v", err)
	}
	bad := AppendKeepalive(nil)
	bad[0] = 0 // corrupt marker
	if _, _, err := Decode(bad); !errors.Is(err, ErrBadMarker) {
		t.Errorf("bad marker: %v", err)
	}
	bad = AppendKeepalive(nil)
	bad[16], bad[17] = 0, 5 // length below header size
	if _, _, err := Decode(bad); !errors.Is(err, ErrBadLength) {
		t.Errorf("bad length: %v", err)
	}
	bad = AppendKeepalive(nil)
	bad[18] = 99
	if _, _, err := Decode(bad); !errors.Is(err, ErrBadType) {
		t.Errorf("bad type: %v", err)
	}
}

// TestDecodeNeverPanics feeds arbitrary bytes (with a valid marker and
// plausible length so the parser goes deep) into Decode.
func TestDecodeNeverPanics(t *testing.T) {
	f := func(body []byte) bool {
		if len(body) > maxMsgLen-headerLen {
			body = body[:maxMsgLen-headerLen]
		}
		buf := make([]byte, 0, headerLen+len(body))
		buf = appendHeader(buf, TypeUpdate)
		buf = append(buf, body...)
		out, err := finishMessage(buf)
		if err != nil {
			return true
		}
		_, _, _ = Decode(out)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestRegistryAnnounceWithdraw(t *testing.T) {
	r := NewRegistry()
	p := netip.MustParsePrefix("198.51.100.7/32")
	ip := netip.MustParseAddr("198.51.100.7")
	other := netip.MustParseAddr("198.51.100.8")

	r.Announce(p, 100)
	if !r.Covered(ip, 100) || !r.Covered(ip, 5000) {
		t.Error("active blackhole not covered")
	}
	if r.Covered(ip, 99) {
		t.Error("covered before announcement")
	}
	if r.Covered(other, 100) {
		t.Error("unrelated IP covered")
	}
	r.Withdraw(p, 200)
	if r.Covered(ip, 200) || r.Covered(ip, 300) {
		t.Error("covered after withdrawal")
	}
	if !r.Covered(ip, 150) {
		t.Error("historical window lost after withdrawal")
	}
	// Re-announce opens a second interval.
	r.Announce(p, 400)
	if !r.Covered(ip, 450) || r.Covered(ip, 300) {
		t.Error("second interval wrong")
	}
	if r.PrefixCount() != 1 || r.ActiveCount() != 1 {
		t.Errorf("counts = %d/%d", r.PrefixCount(), r.ActiveCount())
	}
}

func TestRegistryPrefixLengths(t *testing.T) {
	r := NewRegistry()
	r.Announce(netip.MustParsePrefix("203.0.113.0/24"), 10)
	if !r.Covered(netip.MustParseAddr("203.0.113.200"), 20) {
		t.Error("/24 blackhole must cover member IPs")
	}
	if r.Covered(netip.MustParseAddr("203.0.114.1"), 20) {
		t.Error("adjacent /24 covered")
	}
	// IPv6 address must not match IPv4 prefixes.
	if r.Covered(netip.MustParseAddr("2001:db8::1"), 20) {
		t.Error("v6 address matched v4 prefix")
	}
}

func TestRegistryIdempotentOps(t *testing.T) {
	r := NewRegistry()
	p := netip.MustParsePrefix("192.0.2.1/32")
	r.Withdraw(p, 50) // withdraw before announce: no-op
	r.Announce(p, 100)
	r.Announce(p, 120) // duplicate announce: no new interval
	r.Withdraw(p, 200)
	r.Withdraw(p, 210) // double withdraw: no-op
	if r.Covered(netip.MustParseAddr("192.0.2.1"), 250) {
		t.Error("covered after withdraw")
	}
	if got := r.ActiveAt(150); len(got) != 1 || got[0] != p {
		t.Errorf("ActiveAt = %v", got)
	}
	if got := r.ActiveAt(250); len(got) != 0 {
		t.Errorf("ActiveAt after withdraw = %v", got)
	}
}

func TestRegistryApplyUpdate(t *testing.T) {
	r := NewRegistry()
	p := netip.MustParsePrefix("198.51.100.7/32")
	bh := &Update{
		NextHop:     netip.MustParseAddr("10.0.0.1"),
		Communities: []Community{BlackholeCommunity},
		NLRI:        []netip.Prefix{p},
	}
	plain := &Update{
		NextHop: netip.MustParseAddr("10.0.0.1"),
		NLRI:    []netip.Prefix{netip.MustParsePrefix("192.0.2.0/24")},
	}
	r.ApplyUpdate(bh, 100)
	r.ApplyUpdate(plain, 100)
	if !r.Covered(netip.MustParseAddr("198.51.100.7"), 150) {
		t.Error("blackhole update not applied")
	}
	if r.Covered(netip.MustParseAddr("192.0.2.5"), 150) {
		t.Error("non-blackhole route must not enter the registry")
	}
	r.ApplyUpdate(&Update{Withdrawn: []netip.Prefix{p}}, 200)
	if r.Covered(netip.MustParseAddr("198.51.100.7"), 250) {
		t.Error("withdraw via update not applied")
	}
}

func TestRouteServerEndToEnd(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	clock := time.Now().Unix()
	srv := &RouteServer{
		ASN:      64999,
		RouterID: [4]byte{10, 0, 0, 254},
		Registry: NewRegistry(),
		Clock:    func() int64 { return clock },
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	srvDone := make(chan error, 1)
	go func() { srvDone <- srv.Serve(ctx, ln) }()

	// Member A announces a blackhole, member B should receive it.
	dialCtx, dcancel := context.WithTimeout(ctx, 5*time.Second)
	defer dcancel()
	a, err := Dial(dialCtx, ln.Addr().String(), Open{ASN: 64501, HoldTime: 90, RouterID: [4]byte{10, 0, 0, 1}})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := Dial(dialCtx, ln.Addr().String(), Open{ASN: 64502, HoldTime: 90, RouterID: [4]byte{10, 0, 0, 2}})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	if a.Peer().ASN != 64999 {
		t.Errorf("peer ASN = %d", a.Peer().ASN)
	}

	victim := netip.MustParsePrefix("198.51.100.7/32")
	if err := a.AnnounceBlackhole(victim, netip.MustParseAddr("10.0.0.1")); err != nil {
		t.Fatal(err)
	}

	// B receives the reflected update.
	type res struct {
		msg *Message
		err error
	}
	ch := make(chan res, 1)
	go func() {
		m, err := b.Read()
		ch <- res{m, err}
	}()
	select {
	case r := <-ch:
		if r.err != nil {
			t.Fatal(r.err)
		}
		if r.msg.Type != TypeUpdate || !r.msg.Update.IsBlackhole() {
			t.Fatalf("reflected message = %+v", r.msg)
		}
		if r.msg.Update.NLRI[0] != victim {
			t.Errorf("reflected NLRI = %v", r.msg.Update.NLRI)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("timeout waiting for reflected update")
	}

	// Registry labeled the prefix.
	deadline := time.Now().Add(5 * time.Second)
	for srv.Registry.ActiveCount() == 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if !srv.Registry.Covered(netip.MustParseAddr("198.51.100.7"), clock) {
		t.Error("registry did not record the blackhole")
	}

	// Withdraw propagates.
	if err := a.WithdrawBlackhole(victim); err != nil {
		t.Fatal(err)
	}
	deadline = time.Now().Add(5 * time.Second)
	for srv.Registry.ActiveCount() != 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if srv.Registry.ActiveCount() != 0 {
		t.Error("withdraw did not clear the registry")
	}

	cancel()
	if err := <-srvDone; err != nil {
		t.Fatalf("Serve: %v", err)
	}
}

func BenchmarkRegistryCovered(b *testing.B) {
	r := NewRegistry()
	for i := 0; i < 2500; i++ { // ~hourly average blackhole count at DE-CIX
		p := netip.PrefixFrom(netip.AddrFrom4([4]byte{198, 51, byte(i >> 8), byte(i)}), 32)
		r.Announce(p, 0)
	}
	ip := netip.MustParseAddr("203.0.113.77")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Covered(ip, 100)
	}
}

func BenchmarkUpdateDecode(b *testing.B) {
	u := Update{
		Origin:      0,
		ASPath:      []uint16{64500},
		NextHop:     netip.MustParseAddr("10.0.0.9"),
		Communities: []Community{BlackholeCommunity},
		NLRI:        []netip.Prefix{netip.MustParsePrefix("198.51.100.7/32")},
	}
	buf, err := AppendUpdate(nil, &u)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := Decode(buf); err != nil {
			b.Fatal(err)
		}
	}
}
