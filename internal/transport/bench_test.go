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

// BenchmarkExchangeUDP measures the one-shot exchange hot path against a
// live loopback server: allocs/op here is the number the pooled-buffer
// refactor exists to shrink (the seed allocated a fresh 64 KiB receive
// buffer per exchange).
func BenchmarkExchangeUDP(b *testing.B) {
	s := server.New(server.Config{UDPWorkers: 2})
	if err := s.AddZone(testZone(b)); err != nil {
		b.Fatal(err)
	}
	pc, addr, err := transport.ListenUDP("127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go s.ServeUDP(ctx, pc)

	x := &transport.Exchanger{Timeout: 2 * time.Second, DisableTCPFallback: true}
	q := query(b, "small.x.test.", 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q.ID = uint16(i)
		if _, err := x.Exchange(ctx, addr, q); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExchangeUDPPooled is BenchmarkExchangeUDP through the pooled
// codec path (ExchangeInto + arena decode): the codec work drops out of
// allocs/op, leaving the per-exchange dial as the remaining cost.
func BenchmarkExchangeUDPPooled(b *testing.B) {
	s := server.New(server.Config{UDPWorkers: 2})
	if err := s.AddZone(testZone(b)); err != nil {
		b.Fatal(err)
	}
	pc, addr, err := transport.ListenUDP("127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go s.ServeUDP(ctx, pc)

	x := &transport.Exchanger{Timeout: 2 * time.Second, DisableTCPFallback: true}
	q := query(b, "small.x.test.", 1)
	resp := dnsmsg.GetMsg()
	defer dnsmsg.PutMsg(resp)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q.ID = uint16(i)
		if err := x.ExchangeInto(ctx, addr, q, resp); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkConnSendUDP measures the Conn machinery behind replay's
// stream sources over a datagram endpoint: Send with ID rewriting and
// pending tracking, responses matched by the read loop.
func BenchmarkConnSendUDP(b *testing.B) {
	s := server.New(server.Config{UDPWorkers: 2})
	if err := s.AddZone(testZone(b)); err != nil {
		b.Fatal(err)
	}
	pc, addr, err := transport.ListenUDP("127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go s.ServeUDP(ctx, pc)

	var got atomic.Int64
	dialer := &transport.NetDialer{}
	c := transport.NewConn(transport.ConnConfig{
		Dial:       func() (transport.Endpoint, error) { return dialer.Dial(ctx, transport.UDP, addr) },
		OnResponse: func(any, time.Duration, []byte) { got.Add(1) },
	})
	defer c.Close()
	wire, err := query(b, "small.x.test.", 1).Pack()
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Send(wire, i); err != nil {
			b.Fatal(err)
		}
		// Pace against responses so the 65536-ID window never fills.
		for int(got.Load()) < i-1000 {
			time.Sleep(50 * time.Microsecond)
		}
	}
	// Stop the clock before draining: the drain sleep is teardown, not
	// send-path cost, and letting it run on the timer used to inflate
	// ns/op by orders of magnitude (the sleep dominated the measurement).
	b.StopTimer()
	deadline := time.Now().Add(5 * time.Second)
	for int(got.Load()) < b.N && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
}

// BenchmarkExchangeVNet measures the exchange path over the in-memory
// fabric — no kernel, pure transport overhead.
func BenchmarkExchangeVNet(b *testing.B) {
	s := server.New(server.Config{UDPWorkers: 1})
	if err := s.AddZone(testZone(b)); err != nil {
		b.Fatal(err)
	}
	n := vnetNew()
	srvHost := transport.NewVNetHost(n, netip.MustParseAddr("10.8.0.1"))
	defer srvHost.Close()
	vpc, err := srvHost.ListenPacket(53)
	if err != nil {
		b.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go s.ServeUDP(ctx, vpc)
	cliHost := transport.NewVNetHost(n, netip.MustParseAddr("10.8.0.2"))
	defer cliHost.Close()

	x := &transport.Exchanger{Dialer: cliHost, Timeout: 2 * time.Second, DisableTCPFallback: true}
	target := netip.AddrPortFrom(srvHost.Addr(), 53)
	q := query(b, "small.x.test.", 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q.ID = uint16(i)
		if _, err := x.Exchange(ctx, target, q); err != nil {
			b.Fatal(err)
		}
	}
}
