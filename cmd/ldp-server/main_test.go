package main

import (
	"context"
	"net"
	"os"
	"path/filepath"
	"testing"
	"time"

	"ldplayer/internal/dnsmsg"
	"ldplayer/internal/transport"
)

const testZone = `
$ORIGIN example.com.
$TTL 3600
@ IN SOA ns1 admin 1 7200 3600 1209600 300
@ IN NS ns1
ns1 IN A 192.0.2.53
www IN A 192.0.2.80
`

// startRun launches run() on loopback ephemeral ports and returns the
// bound addresses.
func startRun(t *testing.T, opts options) boundAddrs {
	t.Helper()
	dir := t.TempDir()
	zf := filepath.Join(dir, "example.com.zone")
	if err := os.WriteFile(zf, []byte(testZone), 0o644); err != nil {
		t.Fatal(err)
	}
	opts.zones = []string{zf}
	ctx, cancel := context.WithCancel(context.Background())
	ready := make(chan boundAddrs, 1)
	done := make(chan error, 1)
	go func() { done <- run(ctx, opts, ready) }()
	var bound boundAddrs
	select {
	case bound = <-ready:
	case err := <-done:
		t.Fatalf("run exited before ready: %v", err)
	case <-time.After(10 * time.Second):
		t.Fatal("run never became ready")
	}
	t.Cleanup(func() {
		cancel()
		select {
		case err := <-done:
			if err != nil {
				t.Errorf("run: %v", err)
			}
		case <-time.After(10 * time.Second):
			t.Error("run never exited after cancel")
		}
	})
	return bound
}

// ask sends one UDP query and returns the decoded response.
func ask(t *testing.T, addr string, name dnsmsg.Name) *dnsmsg.Msg {
	t.Helper()
	pc, _, err := transport.ListenUDP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer pc.Close()
	q := &dnsmsg.Msg{ID: 7}
	q.SetQuestion(name, dnsmsg.TypeA)
	wire, err := q.Pack()
	if err != nil {
		t.Fatal(err)
	}
	dst, err := net.ResolveUDPAddr("udp", addr)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pc.WriteTo(wire, dst); err != nil {
		t.Fatal(err)
	}
	pc.SetReadDeadline(time.Now().Add(5 * time.Second)) // test socket; a failed deadline fails the read below
	buf := make([]byte, 4096)
	n, _, err := pc.ReadFrom(buf)
	if err != nil {
		t.Fatal(err)
	}
	var resp dnsmsg.Msg
	if err := resp.Unpack(buf[:n]); err != nil {
		t.Fatal(err)
	}
	return &resp
}

// TestServerE2E boots run() with sharded UDP and a TCP listener and
// exercises both transports end to end.
func TestServerE2E(t *testing.T) {
	bound := startRun(t, options{
		udpAddr:   "127.0.0.1:0",
		udpShards: 2,
		tcpAddr:   "127.0.0.1:0",
		timeout:   5 * time.Second,
	})
	if !bound.UDP.IsValid() || !bound.TCP.IsValid() {
		t.Fatalf("bound addrs invalid: %+v", bound)
	}

	resp := ask(t, bound.UDP.String(), "www.example.com.")
	if resp.Rcode != dnsmsg.RcodeSuccess || len(resp.Answer) == 0 {
		t.Fatalf("udp answer: rcode=%v answers=%d", resp.Rcode, len(resp.Answer))
	}
	if resp.ID != 7 {
		t.Fatalf("response ID = %d, want 7", resp.ID)
	}

	// Same query over TCP through the transport dialer.
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	q := &dnsmsg.Msg{ID: 9}
	q.SetQuestion("www.example.com.", dnsmsg.TypeA)
	x := &transport.Exchanger{Proto: transport.TCP, Timeout: 5 * time.Second}
	tresp, err := x.Exchange(ctx, bound.TCP, q)
	if err != nil {
		t.Fatalf("tcp exchange: %v", err)
	}
	if tresp.Rcode != dnsmsg.RcodeSuccess || len(tresp.Answer) == 0 {
		t.Fatalf("tcp answer: rcode=%v answers=%d", tresp.Rcode, len(tresp.Answer))
	}
}

// TestServerRunErrors: run() surfaces configuration problems as errors
// instead of exiting the process.
func TestServerRunErrors(t *testing.T) {
	if err := run(context.Background(), options{}, nil); err == nil {
		t.Fatal("no error for missing zones")
	}
	err := run(context.Background(), options{zones: []string{"/does/not/exist.zone"}}, nil)
	if err == nil {
		t.Fatal("no error for unreadable zone file")
	}
}
