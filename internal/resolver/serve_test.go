package resolver

import (
	"context"
	"net"
	"net/netip"
	"testing"
	"time"

	"ldplayer/internal/dnsmsg"
	"ldplayer/internal/obs"
	"ldplayer/internal/server"
)

// gatedExchange passes exchanges through to h, except that a query for
// gated waits for release and first reports it has started.
func gatedExchange(h *testHierarchy, gated dnsmsg.Name) (ex ExchangeFunc, started, release chan struct{}) {
	started, release = make(chan struct{}, 1), make(chan struct{})
	ex = func(ctx context.Context, srv netip.AddrPort, q *dnsmsg.Msg) (*dnsmsg.Msg, error) {
		if q.Question[0].Name == gated {
			select {
			case started <- struct{}{}:
			default:
			}
			<-release
		}
		return h.Exchange(ctx, srv, q)
	}
	return ex, started, release
}

// serveStubs runs r.ServeUDP on a loopback socket. It returns a client
// connected to it, the cancel that stops it, and ServeUDP's result.
func serveStubs(t *testing.T, r *Resolver, maxInflight int) (net.Conn, context.CancelFunc, <-chan error) {
	t.Helper()
	pc, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { pc.Close() })
	client, err := net.Dial("udp", pc.LocalAddr().String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { client.Close() })
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- r.ServeUDP(ctx, pc, maxInflight) }()
	return client, cancel, done
}

func sendStub(t *testing.T, c net.Conn, id uint16, name dnsmsg.Name) {
	t.Helper()
	q := &dnsmsg.Msg{ID: id, RecursionDesired: true}
	q.SetQuestion(name, dnsmsg.TypeA)
	wire, err := q.Pack()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Write(wire); err != nil {
		t.Fatal(err)
	}
}

// readStub waits up to wait for the next reply and returns its ID.
func readStub(t *testing.T, c net.Conn, wait time.Duration) (uint16, bool) {
	t.Helper()
	if err := c.SetReadDeadline(time.Now().Add(wait)); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 512)
	n, err := c.Read(buf)
	if err != nil {
		return 0, false
	}
	var resp dnsmsg.Msg
	if err := resp.Unpack(buf[:n]); err != nil || resp.Rcode != dnsmsg.RcodeSuccess || len(resp.Answer) != 1 {
		t.Fatalf("reply: %v (err %v)", &resp, err)
	}
	return resp.ID, true
}

// TestServeUDPDrainsInflight: cancelling ServeUDP while a resolution is
// in flight returns only after that resolution has answered its stub,
// and every I/O buffer borrowed along the way is back in the pool.
func TestServeUDPDrainsInflight(t *testing.T) {
	ex, started, release := gatedExchange(newHierarchy(t), "www.example.com.")
	r, err := New(Config{Roots: []netip.AddrPort{rootAddr}, Exchange: ex})
	if err != nil {
		t.Fatal(err)
	}
	gets, puts := obs.Default.Counter("transport.bufpool.gets"), obs.Default.Counter("transport.bufpool.puts")
	gets0, puts0 := gets.Value(), puts.Value()
	client, cancel, done := serveStubs(t, r, 0)
	sendStub(t, client, 7, "www.example.com.")
	<-started
	cancel()
	select {
	case <-done:
		t.Fatal("ServeUDP returned with a resolution in flight")
	case <-time.After(20 * time.Millisecond):
	}
	close(release)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if id, ok := readStub(t, client, 2*time.Second); !ok || id != 7 {
		t.Errorf("reply id=%d ok=%v", id, ok)
	}
	if g, p := gets.Value()-gets0, puts.Value()-puts0; g != p {
		t.Errorf("bufpool gets=%d puts=%d", g, p)
	}
}

// TestServeUDPSlowWalkDoesNotBlock: while one stub's walk waits on its
// upstream, the next stub is read and answered — unless maxInflight is
// used up, in which case it waits its turn.
func TestServeUDPSlowWalkDoesNotBlock(t *testing.T) {
	for _, tc := range []struct {
		maxInflight int
		overtakes   bool
	}{{0, true}, {1, false}} {
		ex, started, release := gatedExchange(newHierarchy(t), "slow.example.com.")
		r, err := New(Config{Roots: []netip.AddrPort{rootAddr}, Exchange: ex})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := r.Resolve(context.Background(), "www.example.com.", dnsmsg.TypeA); err != nil {
			t.Fatal(err)
		}
		client, cancel, done := serveStubs(t, r, tc.maxInflight)
		sendStub(t, client, 1, "slow.example.com.")
		<-started
		sendStub(t, client, 2, "www.example.com.")
		wait := 2 * time.Second
		if !tc.overtakes {
			wait = 50 * time.Millisecond
		}
		id, ok := readStub(t, client, wait)
		if ok != tc.overtakes || (ok && id != 2) {
			t.Errorf("maxInflight=%d: reply during the slow walk: id=%d ok=%v", tc.maxInflight, id, ok)
		}
		close(release)
		cancel()
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}

// TestServeUDPTruncates: the recursive front end holds UDP replies to
// the authoritative server's limits. The 60-record answer, asked without
// EDNS, comes back in at most 512 bytes with TC set; asked with EDNS
// 4096 it comes back whole.
func TestServeUDPTruncates(t *testing.T) {
	s := server.New(server.Config{})
	if err := s.AddZone(bigZone()); err != nil {
		t.Fatal(err)
	}
	r, err := New(Config{Roots: []netip.AddrPort{rootAddr}, Exchange: ExchangeFunc(
		func(_ context.Context, srv netip.AddrPort, q *dnsmsg.Msg) (*dnsmsg.Msg, error) {
			return s.HandleQuery(srv.Addr(), q, 0), nil
		})})
	if err != nil {
		t.Fatal(err)
	}
	client, cancel, done := serveStubs(t, r, 0)
	defer func() {
		cancel()
		if err := <-done; err != nil {
			t.Error(err)
		}
	}()
	for _, edns := range []bool{false, true} {
		q := &dnsmsg.Msg{ID: 9, RecursionDesired: true}
		q.SetQuestion("big.x.test.", dnsmsg.TypeA)
		if edns {
			q.SetEDNS(4096, false)
		}
		wire, err := q.Pack()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := client.Write(wire); err != nil {
			t.Fatal(err)
		}
		if err := client.SetReadDeadline(time.Now().Add(2 * time.Second)); err != nil {
			t.Fatal(err)
		}
		buf := make([]byte, 64<<10)
		n, err := client.Read(buf)
		if err != nil {
			t.Fatalf("edns=%v: %v", edns, err)
		}
		var resp dnsmsg.Msg
		if err := resp.Unpack(buf[:n]); err != nil {
			t.Fatalf("edns=%v: %v", edns, err)
		}
		if edns {
			if resp.Truncated || len(resp.Answer) != 60 {
				t.Errorf("EDNS 4096: %d bytes, tc=%v, %d answers; want the whole 60", n, resp.Truncated, len(resp.Answer))
			}
		} else if n > dnsmsg.MaxUDPSize || !resp.Truncated || len(resp.Answer) != 0 {
			t.Errorf("no EDNS: %d bytes, tc=%v, %d answers; want <= 512 bytes, tc, none", n, resp.Truncated, len(resp.Answer))
		}
	}
}
