package transport_test

import (
	"context"
	"net/netip"
	"runtime"
	"runtime/debug"
	"testing"
	"time"

	"ldplayer/internal/obs"
	"ldplayer/internal/server"
	"ldplayer/internal/transport"
)

// Buffer-pool counters, as the transport layer registers them.
var (
	bufAllocs = obs.Default.Counter("transport.bufpool.allocs")
	bufGets   = obs.Default.Counter("transport.bufpool.gets")
	bufPuts   = obs.Default.Counter("transport.bufpool.puts")
)

// idleSources brings up n per-source Conns over proto, answers each once
// and leaves it idle, then checks that the whole population holds no
// pool buffer: none is outstanding once the last answer is handled, and
// the pool allocated at most a few — each P can strand a couple in its
// private slot, whatever n is — rather than one parked buffer per
// source (and per server-side connection). The GC is held off so it
// cannot empty the pool mid-count; the sources stay open until the test
// ends.
func idleSources(t *testing.T, n int, proto transport.Proto, addr netip.AddrPort) {
	t.Helper()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	wire, err := query(t, "small.x.test.", 1).Pack()
	if err != nil {
		t.Fatal(err)
	}
	d := &transport.NetDialer{}
	got := make(chan struct{}, 1)
	conns := make([]*transport.Conn, 0, n)
	t.Cleanup(func() {
		for _, c := range conns {
			c.Close()
			c.Wait()
		}
	})
	allocs0, gets0, puts0 := bufAllocs.Value(), bufGets.Value(), bufPuts.Value()
	for i := 0; i < n; i++ {
		c := transport.NewConn(transport.ConnConfig{
			Dial:       func() (transport.Endpoint, error) { return d.Dial(context.Background(), proto, addr) },
			OnResponse: func(any, time.Duration, []byte) { got <- struct{}{} },
		})
		conns = append(conns, c)
		if _, err := c.Send(wire, i); err != nil {
			t.Fatal(err)
		}
		select {
		case <-got:
		case <-time.After(5 * time.Second):
			t.Fatalf("source %d never answered", i)
		}
	}
	// The race detector drops pooled buffers on purpose, so allocations
	// count only without it.
	bound := uint64(4 * runtime.GOMAXPROCS(0))
	if a := bufAllocs.Value() - allocs0; !raceEnabled && a > bound {
		t.Fatalf("%d idle %s sources allocated %d pool buffers, want <= %d", n, proto, a, bound)
	}
	// The last answer's buffer goes back just after its callback.
	deadline := time.Now().Add(2 * time.Second)
	for bufGets.Value()-gets0 != bufPuts.Value()-puts0 {
		if time.Now().After(deadline) {
			t.Fatalf("%d idle %s sources hold %d pool buffers", n, proto, (bufGets.Value()-gets0)-(bufPuts.Value()-puts0))
		}
		time.Sleep(time.Millisecond)
	}
}

// TestIdleTCPConnsHoldNoBuffers: 500 TCP connections to ServeTCP, each
// answered once and left open — neither the client's read loop nor the
// server's per-connection loop parks on a pooled buffer.
func TestIdleTCPConnsHoldNoBuffers(t *testing.T) {
	s := server.New(server.Config{TCPIdleTimeout: time.Minute})
	if err := s.AddZone(testZone(t)); err != nil {
		t.Fatal(err)
	}
	ln, addr, err := transport.ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go s.ServeTCP(ctx, ln)
	idleSources(t, 500, transport.TCP, addr)
	if open := s.Obs().Gauge("server.conns.tcp_open").Value(); open != 500 {
		t.Fatalf("server held %v connections open, want 500", open)
	}
}
