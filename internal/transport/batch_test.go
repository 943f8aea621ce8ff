package transport

import (
	"context"
	"net"
	"net/netip"
	"testing"
	"time"

	"ldplayer/internal/vnet"
)

// newBatchPair binds a server socket wrapped in a UDPBatch and a plain
// client socket aimed at it.
func newBatchPair(t *testing.T) (*UDPBatch, net.PacketConn, netip.AddrPort) {
	t.Helper()
	srv, addr, err := ListenUDP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	cli, _, err := ListenUDP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cli.Close() })
	return NewUDPBatch(srv), cli, addr
}

// readAll drains the batch until want datagrams arrived or the deadline
// passes, returning payloads keyed by string.
func readAll(t *testing.T, b *UDPBatch, want int) map[string]netip.AddrPort {
	t.Helper()
	got := map[string]netip.AddrPort{}
	ms := make([]Datagram, 8)
	for i := range ms {
		ms[i].Buf = make([]byte, 2048)
	}
	deadline := time.Now().Add(5 * time.Second)
	for len(got) < want && time.Now().Before(deadline) {
		n, err := b.ReadBatch(ms)
		if err != nil {
			t.Fatalf("ReadBatch: %v", err)
		}
		for i := 0; i < n; i++ {
			got[string(ms[i].Buf[:ms[i].N])] = ms[i].Addr
		}
	}
	return got
}

func TestUDPBatchReadWrite(t *testing.T) {
	b, cli, addr := newBatchPair(t)
	dst := net.UDPAddrFromAddrPort(addr)
	payloads := []string{"alpha", "beta", "gamma", "delta"}
	for _, p := range payloads {
		if _, err := cli.WriteTo([]byte(p), dst); err != nil {
			t.Fatal(err)
		}
	}
	got := readAll(t, b, len(payloads))
	cliAddr := AddrPortOf(cli.LocalAddr())
	for _, p := range payloads {
		src, ok := got[p]
		if !ok {
			t.Fatalf("payload %q never arrived (got %v)", p, got)
		}
		if src != cliAddr {
			t.Fatalf("payload %q from %v, want %v", p, src, cliAddr)
		}
	}

	// Batched replies land back on the client socket.
	out := make([]Datagram, 0, len(payloads))
	for _, p := range payloads {
		out = append(out, Datagram{Buf: []byte("re:" + p), Addr: cliAddr})
	}
	sent, err := b.WriteBatch(out)
	if err != nil || sent != len(out) {
		t.Fatalf("WriteBatch = %d, %v; want %d, nil", sent, err, len(out))
	}
	buf := make([]byte, 2048)
	seen := map[string]bool{}
	cli.SetReadDeadline(time.Now().Add(5 * time.Second)) // test socket; a failed deadline fails the read below
	for len(seen) < len(payloads) {
		n, _, err := cli.ReadFrom(buf)
		if err != nil {
			t.Fatalf("client read: %v (got %v)", err, seen)
		}
		seen[string(buf[:n])] = true
	}
}

// TestUDPBatchWriteCountsRefused: WriteBatch reports how many datagrams
// the kernel took, not how far it got — a datagram refused mid-batch
// (here: larger than any UDP payload) is skipped and not counted, on
// the sendmmsg path exactly as on the portable one.
func TestUDPBatchWriteCountsRefused(t *testing.T) {
	b, cli, _ := newBatchPair(t)
	dst := AddrPortOf(cli.LocalAddr())
	ms := []Datagram{
		{Buf: []byte("one"), Addr: dst},
		{Buf: make([]byte, 70000), Addr: dst},
		{Buf: []byte("two"), Addr: dst},
	}
	sent, err := b.WriteBatch(ms)
	if err != nil || sent != 2 {
		t.Fatalf("WriteBatch = %d, %v; want 2, nil", sent, err)
	}
	buf := make([]byte, 128)
	cli.SetReadDeadline(time.Now().Add(5 * time.Second)) // test socket; a failed deadline fails the read below
	for _, want := range []string{"one", "two"} {
		n, _, err := cli.ReadFrom(buf)
		if err != nil || string(buf[:n]) != want {
			t.Fatalf("client read = %q, %v; want %q", buf[:n], err, want)
		}
	}
}

// TestUDPBatchDeadline: an expired read deadline surfaces as a timeout
// net.Error, exactly like ReadFrom — the shard shutdown path relies on
// this.
func TestUDPBatchDeadline(t *testing.T) {
	b, _, _ := newBatchPair(t)
	b.pc.SetReadDeadline(time.Now().Add(10 * time.Millisecond)) // test socket; an un-armed deadline hangs the test visibly
	ms := []Datagram{{Buf: make([]byte, 512)}}
	_, err := b.ReadBatch(ms)
	nerr, ok := err.(net.Error)
	if !ok || !nerr.Timeout() {
		t.Fatalf("ReadBatch after deadline = %v; want timeout net.Error", err)
	}
}

// TestUDPBatchFallback drives the portable path through a vnet
// PacketConn, which is not a *net.UDPConn.
func TestUDPBatchFallback(t *testing.T) {
	n := vnet.New()
	srvHost := NewVNetHost(n, netip.MustParseAddr("10.9.0.1"))
	defer srvHost.Close()
	cliHost := NewVNetHost(n, netip.MustParseAddr("10.9.0.2"))
	defer cliHost.Close()
	vpc, err := srvHost.ListenPacket(53)
	if err != nil {
		t.Fatal(err)
	}
	b := NewUDPBatch(vpc)
	if b.Batched() {
		t.Fatal("vnet PacketConn claims batched syscall support")
	}
	ep, err := cliHost.Dial(context.Background(), UDP, netip.AddrPortFrom(srvHost.Addr(), 53))
	if err != nil {
		t.Fatal(err)
	}
	defer ep.Close()
	if err := ep.Send([]byte("ping")); err != nil {
		t.Fatal(err)
	}
	ms := []Datagram{{Buf: make([]byte, 512)}, {Buf: make([]byte, 512)}}
	got, err := b.ReadBatch(ms)
	if err != nil || got != 1 {
		t.Fatalf("fallback ReadBatch = %d, %v; want 1, nil", got, err)
	}
	if string(ms[0].Buf[:ms[0].N]) != "ping" {
		t.Fatalf("payload = %q", ms[0].Buf[:ms[0].N])
	}
	sent, err := b.WriteBatch([]Datagram{{Buf: []byte("pong"), Addr: ms[0].Addr}})
	if err != nil || sent != 1 {
		t.Fatalf("fallback WriteBatch = %d, %v", sent, err)
	}
	buf := make([]byte, 512)
	rn, err := ep.Recv(buf)
	if err != nil || string(buf[:rn]) != "pong" {
		t.Fatalf("reply = %q, %v", buf[:rn], err)
	}
}

func TestListenUDPReusePort(t *testing.T) {
	conns, addr, err := ListenUDPReusePort("127.0.0.1:0", 4)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		for _, c := range conns {
			c.Close()
		}
	}()
	if ReusePortAvailable() {
		if len(conns) != 4 {
			t.Fatalf("got %d sockets, want 4", len(conns))
		}
	} else if len(conns) != 1 {
		t.Fatalf("fallback got %d sockets, want 1", len(conns))
	}
	if addr.Port() == 0 {
		t.Fatal("bound port not resolved")
	}
	for _, c := range conns {
		if got := AddrPortOf(c.LocalAddr()); got != addr {
			t.Fatalf("socket bound to %v, want %v", got, addr)
		}
	}

	// Traffic sent to the shared address lands on some socket and can
	// be answered from it.
	cli, _, err := ListenUDP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	if _, err := cli.WriteTo([]byte("hello"), net.UDPAddrFromAddrPort(addr)); err != nil {
		t.Fatal(err)
	}
	results := make(chan string, len(conns))
	for _, c := range conns {
		c.SetReadDeadline(time.Now().Add(2 * time.Second)) // test socket; reads below time out on their own
		go func(pc net.PacketConn) {
			b := make([]byte, 64)
			n, _, err := pc.ReadFrom(b)
			if err == nil {
				results <- string(b[:n])
			}
		}(c)
	}
	select {
	case got := <-results:
		if got != "hello" {
			t.Fatalf("payload = %q", got)
		}
	case <-time.After(3 * time.Second):
		t.Fatal("no reuseport socket received the datagram")
	}
}
