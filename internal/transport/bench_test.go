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

// segmentedWriter is BenchmarkUDPBatchWriteSegmented's op: one
// WriteBatch of BatchLen equal-size datagrams to one loopback sink,
// which a goroutine drains until tb's cleanup. On Linux the batch is
// one run, so one sendmmsg message carries it.
func segmentedWriter(tb testing.TB) func(tb testing.TB) {
	snd, _, err := transport.ListenUDP("127.0.0.1:0")
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { snd.Close() })
	sink, dst, err := transport.ListenUDP("127.0.0.1:0")
	if err != nil {
		tb.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		rb, ms := transport.NewUDPBatch(sink), *transport.GetBatch()
		for {
			if _, err := rb.ReadBatch(ms); err != nil {
				return // closed at cleanup
			}
		}
	}()
	tb.Cleanup(func() { sink.Close(); <-done })
	wb := transport.NewUDPBatch(snd)
	ms := make([]transport.Datagram, transport.BatchLen)
	for i := range ms {
		ms[i] = transport.Datagram{Buf: make([]byte, 64), Addr: dst}
	}
	return func(tb testing.TB) {
		if n, err := wb.WriteBatch(ms); err != nil || n != len(ms) {
			tb.Fatalf("WriteBatch = %d, %v; want %d, nil", n, err, len(ms))
		}
	}
}

// BenchmarkUDPBatchWriteSegmented measures one batch of equal replies to
// one client, the shape a hot answer cache writes; ns/op covers
// BatchLen datagrams.
func BenchmarkUDPBatchWriteSegmented(b *testing.B) {
	write := segmentedWriter(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		write(b)
	}
}

// coalescedReader is BenchmarkUDPBatchReadCoalesced's op: one WriteBatch
// of BatchLen+8 equal-size datagrams to a loopback socket, then
// ReadBatch with BatchLen slots until every datagram is back. On Linux
// the run leaves as one segmented message and arrives as one UDP_GRO
// message, so the second ReadBatch takes its last 8 datagrams from the
// carry-over, without a syscall.
func coalescedReader(tb testing.TB) func(tb testing.TB) {
	snd, _, err := transport.ListenUDP("127.0.0.1:0")
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { snd.Close() })
	rcv, dst, err := transport.ListenUDP("127.0.0.1:0")
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { rcv.Close() })
	wb, rb := transport.NewUDPBatch(snd), transport.NewUDPBatch(rcv)
	out := make([]transport.Datagram, transport.BatchLen+8)
	for i := range out {
		out[i] = transport.Datagram{Buf: make([]byte, 64), Addr: dst}
	}
	in := *transport.GetBatch()
	return func(tb testing.TB) {
		if n, err := wb.WriteBatch(out); err != nil || n != len(out) {
			tb.Fatalf("WriteBatch = %d, %v; want %d, nil", n, err, len(out))
		}
		// A lost datagram fails the op instead of hanging it.
		rcv.SetReadDeadline(time.Now().Add(5 * time.Second)) // test socket; a failed deadline shows as a hang
		for got := 0; got < len(out); {
			n, err := rb.ReadBatch(in)
			if err != nil {
				tb.Fatalf("ReadBatch after %d of %d datagrams: %v", got, len(out), err)
			}
			got += n
		}
	}
}

// BenchmarkUDPBatchReadCoalesced measures receiving one run of equal
// queries from one sender, the shape a fast replay querier sends; ns/op
// covers the write and the reads of BatchLen+8 datagrams.
func BenchmarkUDPBatchReadCoalesced(b *testing.B) {
	read := coalescedReader(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		read(b)
	}
}
