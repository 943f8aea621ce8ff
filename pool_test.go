package ldplayer

import (
	"bytes"
	"context"
	"fmt"
	"net"
	"net/netip"
	"os"
	"sync"
	"testing"
	"time"

	"ldplayer/internal/dnsmsg"
	"ldplayer/internal/hierarchy"
	"ldplayer/internal/server"
	"ldplayer/internal/transport"
	"ldplayer/internal/zone"
	"ldplayer/internal/zonegen"
)

// TestMsgPoolBalance serves a query mix through every path that draws
// from the dnsmsg message pool — the UDP shards, the stream path over
// TCP and TLS, AXFR, the resolver's ServeUDP front, the hierarchy's
// meta handler and transport.Conn's decoded responses — and checks,
// after each phase has shut down, that every GetMsg was matched by a
// PutMsg. A leaked message does not fail a query; it turns the pooled
// paths back into one allocation per query, so only the pool's own
// counters show it. The pool is process-wide: this test must not run
// in parallel with anything that decodes messages.
func TestMsgPoolBalance(t *testing.T) {
	text, err := os.ReadFile("testdata/example.com.zone")
	if err != nil {
		t.Fatal(err)
	}
	z, err := zone.Parse(bytes.NewReader(text), "example.com.")
	if err != nil {
		t.Fatal(err)
	}
	srvTLS, cliTLS, err := server.SelfSignedTLS("127.0.0.1")
	if err != nil {
		t.Fatal(err)
	}

	poolBalanced(t, "authoritative UDP, TCP, TLS and AXFR", func() {
		srv := server.New(server.Config{UDPWorkers: 2, TCPIdleTimeout: 5 * time.Second})
		if err := srv.AddZone(z); err != nil {
			t.Fatal(err)
		}
		pc, ln, addr, err := transport.ListenUDPTCP("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		tlsLn, tlsAddr, err := transport.ListenTCP("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		var wg sync.WaitGroup
		for _, serve := range []func() error{
			func() error { return srv.ServeUDP(ctx, pc) },
			func() error { return srv.ServeTCP(ctx, ln) },
			func() error { return srv.ServeTLS(ctx, tlsLn, srvTLS) },
		} {
			wg.Add(1)
			go func() { defer wg.Done(); serve() }()
		}
		d := &transport.NetDialer{TLSConfig: cliTLS}
		queryMix(t, d, transport.UDP, addr)
		queryMix(t, d, transport.TCP, addr)
		queryMix(t, d, transport.TLS, tlsAddr)

		c, err := net.Dial("tcp", addr.String())
		if err != nil {
			t.Fatal(err)
		}
		c.SetDeadline(time.Now().Add(5 * time.Second))
		if got, err := server.FetchAXFR(c, "example.com."); err != nil {
			t.Errorf("AXFR: %v", err)
		} else if got.RecordCount() != z.RecordCount() {
			t.Errorf("AXFR: %d records, want %d", got.RecordCount(), z.RecordCount())
		}
		c.Close()
		cancel()
		wg.Wait()
		pc.Close()
	})

	poolBalanced(t, "resolver ServeUDP over the hierarchy's meta handler", func() {
		h, err := zonegen.Generate(zonegen.Config{TLDs: []string{"com"}, SLDsPerTLD: 4, HostsPerSLD: 2, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		em, err := hierarchy.New(h, hierarchy.DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		pc, addr, err := transport.ListenUDP("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		done := make(chan error, 1)
		go func() { done <- em.Resolver.ServeUDP(ctx, pc, 8) }()
		var names []dnsmsg.Name
		for _, sld := range h.SLDs {
			names = append(names, dnsmsg.MustParseName("www."+string(sld)), dnsmsg.MustParseName("nx."+string(sld)))
		}
		exchangeAll(t, &transport.NetDialer{}, transport.UDP, addr, names)
		cancel()
		<-done
		pc.Close()
	})
}

// poolBalanced runs phase and then waits (up to 5 s, for connection
// goroutines still unwinding) until the pool's GetMsg and PutMsg counts
// have moved by the same amount, and by at least one.
func poolBalanced(t *testing.T, phase string, run func()) {
	t.Helper()
	before := dnsmsg.PoolStats()
	run()
	var gets, puts uint64
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(10 * time.Millisecond) {
		now := dnsmsg.PoolStats()
		gets, puts = now.Gets-before.Gets, now.Puts-before.Puts
		if gets == puts || time.Now().After(deadline) {
			break
		}
	}
	if gets == 0 || gets != puts {
		t.Errorf("%s: %d GetMsg, %d PutMsg; every pooled message must go back", phase, gets, puts)
	}
}

// queryMix sends a batch of distinct queries over one transport.Conn:
// wildcard hits and a name outside the zone, each once so every one
// misses the answer cache.
func queryMix(t *testing.T, d transport.Dialer, proto transport.Proto, addr netip.AddrPort) {
	t.Helper()
	var names []dnsmsg.Name
	for i := range 8 {
		names = append(names, dnsmsg.MustParseName(fmt.Sprintf("h%d-%s.example.com.", i, proto)))
	}
	names = append(names, "example.org.")
	exchangeAll(t, d, proto, addr, names)
}

// exchangeAll sends one A query per name over a transport.Conn with a
// decoded-response callback and waits for every answer, each of which
// must echo its own question.
func exchangeAll(t *testing.T, d transport.Dialer, proto transport.Proto, addr netip.AddrPort, names []dnsmsg.Name) {
	t.Helper()
	got := make(chan error, len(names))
	c := transport.NewConn(transport.ConnConfig{
		Dial: func() (transport.Endpoint, error) { return d.Dial(context.Background(), proto, addr) },
		OnResponseMsg: func(token any, _ time.Duration, m *dnsmsg.Msg) {
			want := token.(dnsmsg.Name)
			switch {
			case m == nil:
				got <- fmt.Errorf("%s %s: undecodable response", proto, want)
			case len(m.Question) != 1 || m.Question[0].Name != want:
				got <- fmt.Errorf("%s %s: response answers %v", proto, want, m.Question)
			default:
				got <- nil
			}
		},
		OnDrop: func(token any) { got <- fmt.Errorf("%s %s: dropped", proto, token) },
	})
	defer func() { c.Close(); c.Wait() }()
	for _, name := range names {
		var q dnsmsg.Msg
		q.SetQuestion(name, dnsmsg.TypeA)
		q.RecursionDesired = true
		wire, err := q.Pack()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.Send(wire, name); err != nil {
			t.Fatalf("%s send %s: %v", proto, name, err)
		}
	}
	timeout := time.After(10 * time.Second)
	for range names {
		select {
		case err := <-got:
			if err != nil {
				t.Error(err)
			}
		case <-timeout:
			t.Fatalf("%s: %d queries unanswered after 10 s", proto, c.Pending())
		}
	}
}
