package transport_test

import (
	"context"
	"net/netip"
	"sync/atomic"
	"testing"
	"time"

	"ldplayer/internal/dnsmsg"
	"ldplayer/internal/server"
	"ldplayer/internal/transport"
	"ldplayer/internal/vnet"
)

func vnetNew() *vnet.Network { return vnet.New() }

// udpTarget serves testZone on a loopback UDP socket until tb's
// cleanup and returns the server's address.
func udpTarget(tb testing.TB) netip.AddrPort {
	s := server.New(server.Config{UDPWorkers: 2})
	if err := s.AddZone(testZone(tb)); err != nil {
		tb.Fatal(err)
	}
	pc, addr, err := transport.ListenUDP("127.0.0.1:0")
	if err != nil {
		tb.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	tb.Cleanup(cancel)
	go s.ServeUDP(ctx, pc)
	return addr
}

// vnetTarget serves testZone on the in-memory fabric until tb's
// cleanup and returns an exchanger on a second fabric host and the
// server's address.
func vnetTarget(tb testing.TB) (*transport.Exchanger, netip.AddrPort) {
	s := server.New(server.Config{UDPWorkers: 1})
	if err := s.AddZone(testZone(tb)); err != nil {
		tb.Fatal(err)
	}
	n := vnetNew()
	srvHost := transport.NewVNetHost(n, netip.MustParseAddr("10.8.0.1"))
	tb.Cleanup(func() { srvHost.Close() })
	vpc, err := srvHost.ListenPacket(53)
	if err != nil {
		tb.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	tb.Cleanup(cancel)
	go s.ServeUDP(ctx, vpc)
	cliHost := transport.NewVNetHost(n, netip.MustParseAddr("10.8.0.2"))
	tb.Cleanup(func() { cliHost.Close() })
	x := &transport.Exchanger{Dialer: cliHost, Timeout: 2 * time.Second, DisableTCPFallback: true}
	return x, netip.AddrPortFrom(srvHost.Addr(), 53)
}

// connSender is BenchmarkConnSendUDP's op: a transport.Conn over a UDP
// endpoint to udpTarget, whose send paces against responses so the
// 65536-ID window never fills, and a drain that waits for the
// responses still due.
func connSender(tb testing.TB) (send func(tb testing.TB, i int), drain func(n int)) {
	addr := udpTarget(tb)
	var got atomic.Int64
	dialer := &transport.NetDialer{}
	c := transport.NewConn(transport.ConnConfig{
		Dial:       func() (transport.Endpoint, error) { return dialer.Dial(context.Background(), transport.UDP, addr) },
		OnResponse: func(any, time.Duration, []byte) { got.Add(1) },
	})
	tb.Cleanup(func() { c.Close() })
	wire, err := query(tb, "small.x.test.", 1).Pack()
	if err != nil {
		tb.Fatal(err)
	}
	send = func(tb testing.TB, i int) {
		if _, err := c.Send(wire, i); err != nil {
			tb.Fatal(err)
		}
		for int(got.Load()) < i-1000 {
			time.Sleep(50 * time.Microsecond)
		}
	}
	drain = func(n int) {
		deadline := time.Now().Add(5 * time.Second)
		for int(got.Load()) < n && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
	}
	return send, drain
}

// BenchmarkExchangeUDP measures the one-shot exchange hot path against a
// live loopback server: allocs/op here is the number the pooled-buffer
// refactor exists to shrink (the seed allocated a fresh 64 KiB receive
// buffer per exchange).
func BenchmarkExchangeUDP(b *testing.B) {
	addr := udpTarget(b)
	x := &transport.Exchanger{Timeout: 2 * time.Second, DisableTCPFallback: true}
	q := query(b, "small.x.test.", 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q.ID = uint16(i)
		if _, err := x.Exchange(context.Background(), addr, q); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExchangeUDPPooled is BenchmarkExchangeUDP through the pooled
// codec path (ExchangeInto + arena decode): the codec work drops out of
// allocs/op, leaving the per-exchange dial as the remaining cost.
func BenchmarkExchangeUDPPooled(b *testing.B) {
	addr := udpTarget(b)
	x := &transport.Exchanger{Timeout: 2 * time.Second, DisableTCPFallback: true}
	q := query(b, "small.x.test.", 1)
	resp := dnsmsg.GetMsg()
	defer dnsmsg.PutMsg(resp)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q.ID = uint16(i)
		if err := x.ExchangeInto(context.Background(), addr, q, resp); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkConnSendUDP measures the Conn machinery behind replay's
// stream sources over a datagram endpoint: Send with ID rewriting and
// pending tracking, responses matched by the read loop.
func BenchmarkConnSendUDP(b *testing.B) {
	send, drain := connSender(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		send(b, i)
	}
	// Stop the clock before draining: the drain sleep is teardown, not
	// send-path cost, and letting it run on the timer used to inflate
	// ns/op by orders of magnitude (the sleep dominated the measurement).
	b.StopTimer()
	drain(b.N)
}

// BenchmarkExchangeVNet measures the exchange path over the in-memory
// fabric — no kernel, pure transport overhead.
func BenchmarkExchangeVNet(b *testing.B) {
	x, target := vnetTarget(b)
	q := query(b, "small.x.test.", 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q.ID = uint16(i)
		if _, err := x.Exchange(context.Background(), target, q); err != nil {
			b.Fatal(err)
		}
	}
}
