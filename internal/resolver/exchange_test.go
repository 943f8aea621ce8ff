package resolver

import (
	"context"
	"net"
	"net/netip"
	"testing"
	"time"

	"ldplayer/internal/dnsmsg"
	"ldplayer/internal/server"
	"ldplayer/internal/transport"
	"ldplayer/internal/zone"
)

// bigZone is x.test. with one small A RRset (small.x.test.) and one of
// 60 records (big.x.test.) too big for a 512-byte UDP reply.
func bigZone() *zone.Zone {
	z := zone.New("x.test.")
	z.Add(dnsmsg.RR{Name: "x.test.", Type: dnsmsg.TypeSOA, Class: dnsmsg.ClassINET, TTL: 60,
		Data: dnsmsg.SOA{MName: "ns.x.test.", RName: "h.x.test.", Serial: 1, Refresh: 1, Retry: 1, Expire: 1, Minimum: 1}})
	z.Add(dnsmsg.RR{Name: "x.test.", Type: dnsmsg.TypeNS, Class: dnsmsg.ClassINET, TTL: 60,
		Data: dnsmsg.NS{Host: "ns.x.test."}})
	z.Add(dnsmsg.RR{Name: "small.x.test.", Type: dnsmsg.TypeA, Class: dnsmsg.ClassINET, TTL: 60,
		Data: dnsmsg.A{Addr: netip.MustParseAddr("192.0.2.1")}})
	for i := 0; i < 60; i++ {
		z.Add(dnsmsg.RR{Name: "big.x.test.", Type: dnsmsg.TypeA, Class: dnsmsg.ClassINET, TTL: 60,
			Data: dnsmsg.A{Addr: netip.AddrFrom4([4]byte{198, 51, 100, byte(i)})}})
	}
	return z
}

// TestUDPExchangerLive resolves against a real server over loopback
// through a UDP transport.Exchanger, the exchanger a stand-alone
// recursive deployment uses, including the TC -> TCP fallback path.
func TestUDPExchangerLive(t *testing.T) {
	s := server.New(server.Config{})
	if err := s.AddZone(bigZone()); err != nil {
		t.Fatal(err)
	}
	pc, ln, _, err := transport.ListenUDPTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go s.ServeUDP(ctx, pc)
	go s.ServeTCP(ctx, ln)
	ap := pc.LocalAddr().(*net.UDPAddr).AddrPort()
	target := netip.AddrPortFrom(netip.MustParseAddr("127.0.0.1"), ap.Port())

	x := &transport.Exchanger{Timeout: 2 * time.Second}

	// Small answer arrives over UDP.
	var q dnsmsg.Msg
	q.ID = 11
	q.SetQuestion("small.x.test.", dnsmsg.TypeA)
	resp, err := x.Exchange(ctx, target, &q)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Truncated || len(resp.Answer) != 1 {
		t.Fatalf("small: tc=%v answers=%d", resp.Truncated, len(resp.Answer))
	}

	// Oversized answer truncates on UDP and completes over TCP.
	q.ID = 12
	q.SetQuestion("big.x.test.", dnsmsg.TypeA)
	resp, err = x.Exchange(ctx, target, &q)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Truncated || len(resp.Answer) != 60 {
		t.Fatalf("big: tc=%v answers=%d (fallback failed)", resp.Truncated, len(resp.Answer))
	}

	// With fallback disabled the truncated response surfaces.
	x2 := &transport.Exchanger{Timeout: 2 * time.Second, DisableTCPFallback: true}
	q.ID = 13
	resp, err = x2.Exchange(ctx, target, &q)
	if err != nil {
		t.Fatal(err)
	}
	if !resp.Truncated {
		t.Fatal("expected truncated response without fallback")
	}

	// Dead server: timeout error, no hang.
	x3 := &transport.Exchanger{Timeout: 200 * time.Millisecond}
	q.ID = 14
	if _, err := x3.Exchange(ctx, netip.MustParseAddrPort("127.0.0.1:1"), &q); err == nil {
		t.Fatal("exchange with dead server succeeded")
	}
}

// TestResolverOverRealSockets: full resolver + transport.Exchanger
// against a live multi-zone server reachable at one address — the
// deployment mode outside the testbed.
func TestResolverOverRealSockets(t *testing.T) {
	// One server hosting root + com + example.com in a match-all view,
	// reachable at 127.0.0.1. All NS addresses in the zones point at
	// 127.0.0.1 so referrals resolve to the same listener.
	const rootText = `
$ORIGIN .
@ IN SOA a. b. 1 1 1 1 1
@ IN NS ns.
ns. IN A 127.0.0.1
com. IN NS ns.com.
ns.com. IN A 127.0.0.1
`
	const comText = `
$ORIGIN com.
@ IN SOA ns.com. h.com. 1 1 1 1 1
@ IN NS ns.com.
ns.com. IN A 127.0.0.1
example IN NS ns.example.com.
ns.example.com. IN A 127.0.0.1
`
	const exText = `
$ORIGIN example.com.
@ IN SOA ns admin 1 1 1 1 1
@ IN NS ns
ns IN A 127.0.0.1
www IN A 192.0.2.80
`
	s := server.New(server.Config{})
	for _, text := range []string{rootText, comText, exText} {
		z, err := zone.ParseString(text, "")
		if err != nil {
			t.Fatal(err)
		}
		if err := s.AddZone(z); err != nil {
			t.Fatal(err)
		}
	}
	pc, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go s.ServeUDP(ctx, pc)
	port := pc.LocalAddr().(*net.UDPAddr).AddrPort().Port()

	// NOTE: referral glue says port 53, but the test server runs on an
	// ephemeral port; remap in the exchanger wrapper.
	inner := &transport.Exchanger{Timeout: 2 * time.Second}
	remap := ExchangeFunc(func(ctx context.Context, srv netip.AddrPort, q *dnsmsg.Msg) (*dnsmsg.Msg, error) {
		return inner.Exchange(ctx, netip.AddrPortFrom(srv.Addr(), port), q)
	})
	r, err := New(Config{
		Roots:    []netip.AddrPort{netip.AddrPortFrom(netip.MustParseAddr("127.0.0.1"), port)},
		Exchange: remap,
	})
	if err != nil {
		t.Fatal(err)
	}
	// The single-view server answers www.example.com directly from the
	// most specific zone (no split horizon here) — one exchange, final
	// answer. The point of this test is socket-level correctness.
	m, err := r.Resolve(ctx, "www.example.com.", dnsmsg.TypeA)
	if err != nil {
		t.Fatal(err)
	}
	if m.Rcode != dnsmsg.RcodeSuccess || len(m.Answer) == 0 {
		t.Fatalf("rcode=%v answers=%d", m.Rcode, len(m.Answer))
	}
}
