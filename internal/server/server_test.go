package server

import (
	"context"
	"crypto/tls"
	"fmt"
	"net"
	"net/netip"
	"testing"
	"time"

	"ldplayer/internal/dnsmsg"
	"ldplayer/internal/zone"
)

const comZone = `
$ORIGIN com.
$TTL 3600
@ IN SOA a.gtld-servers.net. nstld.verisign-grs.com. 1 1800 900 604800 86400
@ IN NS a.gtld-servers.net.
example IN NS ns1.example.com.
ns1.example.com. IN A 192.0.2.53
`

const exampleComZone = `
$ORIGIN example.com.
$TTL 3600
@ IN SOA ns1 admin 1 7200 3600 1209600 300
@ IN NS ns1
ns1 IN A 192.0.2.53
www IN A 192.0.2.80
`

func mustParse(t testing.TB, text string) *zone.Zone {
	t.Helper()
	z, err := zone.ParseString(text, "")
	if err != nil {
		t.Fatal(err)
	}
	return z
}

func query(name dnsmsg.Name, typ dnsmsg.Type) *dnsmsg.Msg {
	m := &dnsmsg.Msg{ID: 42}
	m.SetQuestion(name, typ)
	return m
}

func TestHandleQueryBasic(t *testing.T) {
	s := New(Config{})
	if err := s.AddZone(mustParse(t, exampleComZone)); err != nil {
		t.Fatal(err)
	}
	resp := s.HandleQuery(netip.MustParseAddr("10.0.0.1"), query("www.example.com.", dnsmsg.TypeA), 512)
	if resp.Rcode != dnsmsg.RcodeSuccess || !resp.Authoritative || len(resp.Answer) != 1 {
		t.Fatalf("resp=%+v", resp)
	}
	if resp.ID != 42 || !resp.Response {
		t.Error("reply header not copied")
	}
}

func TestHandleQueryRefusesOutOfZone(t *testing.T) {
	s := New(Config{})
	s.AddZone(mustParse(t, exampleComZone))
	resp := s.HandleQuery(netip.MustParseAddr("10.0.0.1"), query("example.org.", dnsmsg.TypeA), 512)
	if resp.Rcode != dnsmsg.RcodeRefused {
		t.Fatalf("rcode=%v", resp.Rcode)
	}
}

func TestHandleQueryRejectsNonQuery(t *testing.T) {
	s := New(Config{})
	s.AddZone(mustParse(t, exampleComZone))
	q := query("www.example.com.", dnsmsg.TypeA)
	q.Opcode = dnsmsg.OpcodeUpdate
	if resp := s.HandleQuery(netip.MustParseAddr("10.0.0.1"), q, 512); resp.Rcode != dnsmsg.RcodeNotImpl {
		t.Fatalf("rcode=%v", resp.Rcode)
	}
	q = query("www.example.com.", dnsmsg.TypeA)
	q.Question = nil
	if resp := s.HandleQuery(netip.MustParseAddr("10.0.0.1"), q, 512); resp.Rcode != dnsmsg.RcodeNotImpl {
		t.Fatalf("no-question rcode=%v", resp.Rcode)
	}
}

// TestSplitHorizon is the paper's core meta-DNS-server behaviour: the
// same question gets a different answer depending on the source address,
// which after proxy rewriting identifies the target hierarchy level.
func TestSplitHorizon(t *testing.T) {
	s := New(Config{})
	comAddr := netip.MustParseAddr("192.5.6.30") // a.gtld-servers.net
	exAddr := netip.MustParseAddr("192.0.2.53")  // ns1.example.com
	vCom := NewView("com", []netip.Addr{comAddr}, nil)
	if err := vCom.Zones.Add(mustParse(t, comZone)); err != nil {
		t.Fatal(err)
	}
	vEx := NewView("example.com", []netip.Addr{exAddr}, nil)
	if err := vEx.Zones.Add(mustParse(t, exampleComZone)); err != nil {
		t.Fatal(err)
	}
	s.AddView(vCom)
	s.AddView(vEx)

	q := query("www.example.com.", dnsmsg.TypeA)

	// Arriving "from" the com server address: a referral to example.com.
	resp := s.HandleQuery(comAddr, q, 0)
	if len(resp.Answer) != 0 || len(resp.Authority) == 0 || resp.Authority[0].Type != dnsmsg.TypeNS {
		t.Fatalf("com view: want referral, got %+v", resp)
	}
	if resp.Authoritative {
		t.Error("referral marked authoritative")
	}

	// Arriving "from" the example.com server address: the final answer.
	resp = s.HandleQuery(exAddr, q, 0)
	if len(resp.Answer) != 1 || resp.Answer[0].Type != dnsmsg.TypeA || !resp.Authoritative {
		t.Fatalf("example view: want answer, got %+v", resp)
	}

	// Unknown source matches no view.
	resp = s.HandleQuery(netip.MustParseAddr("203.0.113.9"), q, 0)
	if resp.Rcode != dnsmsg.RcodeRefused {
		t.Fatalf("unmatched source rcode=%v", resp.Rcode)
	}
}

func TestViewPrefixMatch(t *testing.T) {
	v := NewView("net10", nil, []netip.Prefix{netip.MustParsePrefix("10.0.0.0/8")})
	if !v.Matches(netip.MustParseAddr("10.1.2.3")) || v.Matches(netip.MustParseAddr("11.0.0.1")) {
		t.Error("prefix matching broken")
	}
}

func TestZoneSetLongestMatch(t *testing.T) {
	zs := NewZoneSet()
	zs.Add(mustParse(t, comZone))
	zs.Add(mustParse(t, exampleComZone))
	z, ok := zs.Find("www.example.com.")
	if !ok || z.Origin != "example.com." {
		t.Fatalf("Find: %v %v", z, ok)
	}
	z, ok = zs.Find("other.com.")
	if !ok || z.Origin != "com." {
		t.Fatalf("Find com: %v %v", z, ok)
	}
	if _, ok := zs.Find("example.org."); ok {
		t.Error("found zone for out-of-set name")
	}
	if err := zs.Add(mustParse(t, comZone)); err == nil {
		t.Error("duplicate origin accepted")
	}
	origins := zs.Origins()
	if len(origins) != 2 || origins[0] != "com." {
		t.Errorf("origins=%v", origins)
	}
}

func TestTruncation(t *testing.T) {
	// Build a zone with a large rrset that cannot fit in 512 bytes.
	z := zone.New("big.test.")
	z.Add(dnsmsg.RR{Name: "big.test.", Type: dnsmsg.TypeSOA, Class: dnsmsg.ClassINET, TTL: 60,
		Data: dnsmsg.SOA{MName: "ns.big.test.", RName: "h.big.test.", Serial: 1, Refresh: 1, Retry: 1, Expire: 1, Minimum: 1}})
	for i := 0; i < 60; i++ {
		z.Add(dnsmsg.RR{Name: "many.big.test.", Type: dnsmsg.TypeA, Class: dnsmsg.ClassINET, TTL: 60,
			Data: dnsmsg.A{Addr: netip.AddrFrom4([4]byte{192, 0, 2, byte(i)})}})
	}
	s := New(Config{})
	s.AddZone(z)
	resp := s.HandleQuery(netip.MustParseAddr("10.0.0.1"), query("many.big.test.", dnsmsg.TypeA), 512)
	if !resp.Truncated || len(resp.Answer) != 0 {
		t.Fatalf("truncation: TC=%v answers=%d", resp.Truncated, len(resp.Answer))
	}
	// With EDNS advertising 4096, the same response fits.
	q := query("many.big.test.", dnsmsg.TypeA)
	q.SetEDNS(4096, false)
	resp = s.HandleQuery(netip.MustParseAddr("10.0.0.1"), q, 512)
	if resp.Truncated || len(resp.Answer) != 60 {
		t.Fatalf("EDNS should lift limit: TC=%v answers=%d", resp.Truncated, len(resp.Answer))
	}
	// Stream transports (maxSize 0) never truncate.
	resp = s.HandleQuery(netip.MustParseAddr("10.0.0.1"), query("many.big.test.", dnsmsg.TypeA), 0)
	if resp.Truncated {
		t.Error("stream response truncated")
	}
}

func TestServeUDPLive(t *testing.T) {
	s := New(Config{UDPWorkers: 2})
	s.AddZone(mustParse(t, exampleComZone))
	pc, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer pc.Close()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() { done <- s.ServeUDP(ctx, pc) }()

	c, err := net.Dial("udp", pc.LocalAddr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	wire, _ := query("www.example.com.", dnsmsg.TypeA).Pack()
	if _, err := c.Write(wire); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 4096)
	c.SetReadDeadline(time.Now().Add(2 * time.Second))
	n, err := c.Read(buf)
	if err != nil {
		t.Fatal(err)
	}
	var resp dnsmsg.Msg
	if err := resp.Unpack(buf[:n]); err != nil {
		t.Fatal(err)
	}
	if resp.ID != 42 || len(resp.Answer) != 1 {
		t.Fatalf("resp=%+v", resp)
	}
	st := s.Stats()
	if st.UDPQueries != 1 || st.Responses != 1 {
		t.Errorf("stats=%+v", st)
	}
	cancel()
	<-done
}

func TestServeTCPLiveWithReuseAndIdleTimeout(t *testing.T) {
	s := New(Config{TCPIdleTimeout: 300 * time.Millisecond})
	s.AddZone(mustParse(t, exampleComZone))
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go s.ServeTCP(ctx, ln)

	c, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	// Two queries on one connection: connection reuse.
	for i := 0; i < 2; i++ {
		wire, _ := query("www.example.com.", dnsmsg.TypeA).Pack()
		if err := dnsmsg.WriteTCPMsg(c, wire); err != nil {
			t.Fatal(err)
		}
		c.SetReadDeadline(time.Now().Add(2 * time.Second))
		out, err := dnsmsg.ReadTCPMsg(c)
		if err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
		var resp dnsmsg.Msg
		if err := resp.Unpack(out); err != nil {
			t.Fatal(err)
		}
		if len(resp.Answer) != 1 {
			t.Fatalf("query %d: %+v", i, resp)
		}
	}
	if st := s.Stats(); st.TCPConnsTotal != 1 || st.TCPQueries != 2 {
		t.Errorf("stats=%+v", st)
	}
	// Idle longer than the timeout: the server closes the connection.
	time.Sleep(500 * time.Millisecond)
	c.SetReadDeadline(time.Now().Add(2 * time.Second))
	if _, err := dnsmsg.ReadTCPMsg(c); err == nil {
		t.Error("connection survived idle timeout")
	}
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if s.Stats().TCPConnsOpen == 0 {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if open := s.Stats().TCPConnsOpen; open != 0 {
		t.Errorf("%d connections still open after idle timeout", open)
	}
}

// TestServeTCPPipelined: the stream path reads each framed query into a
// borrowed buffer (transport.RecvPooled) that the next read reuses, so
// whatever answers a query must be done with its bytes first. Queries
// written back to back on one connection, each for its own name and
// with its own ID, must each come back answering that name.
func TestServeTCPPipelined(t *testing.T) {
	s := New(Config{})
	s.AddZone(mustParse(t, exampleComZone+"* IN A 192.0.2.200\n"))
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go s.ServeTCP(ctx, ln)

	c, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	const n = 200
	name := func(i int) dnsmsg.Name { return dnsmsg.Name(fmt.Sprintf("h%03d.example.com.", i)) }
	var all []byte
	for i := range n {
		q := query(name(i), dnsmsg.TypeA)
		q.ID = uint16(i)
		wire, err := q.Pack()
		if err != nil {
			t.Fatal(err)
		}
		all = append(append(all, byte(len(wire)>>8), byte(len(wire))), wire...)
	}
	if _, err := c.Write(all); err != nil {
		t.Fatal(err)
	}
	c.SetReadDeadline(time.Now().Add(5 * time.Second))
	for range n {
		out, err := dnsmsg.ReadTCPMsg(c)
		if err != nil {
			t.Fatal(err)
		}
		var resp dnsmsg.Msg
		if err := resp.Unpack(out); err != nil {
			t.Fatal(err)
		}
		if len(resp.Question) != 1 || resp.ID >= n || resp.Question[0].Name != name(int(resp.ID)) {
			t.Fatalf("response ID %d answers %v", resp.ID, resp.Question)
		}
	}
}

func TestServeTLSLive(t *testing.T) {
	s := New(Config{TCPIdleTimeout: 2 * time.Second})
	s.AddZone(mustParse(t, exampleComZone))
	srvCfg, cliCfg, err := SelfSignedTLS("127.0.0.1")
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go s.ServeTLS(ctx, ln, srvCfg)

	c, err := tls.Dial("tcp", ln.Addr().String(), cliCfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	wire, _ := query("www.example.com.", dnsmsg.TypeA).Pack()
	if err := dnsmsg.WriteTCPMsg(c, wire); err != nil {
		t.Fatal(err)
	}
	c.SetReadDeadline(time.Now().Add(2 * time.Second))
	out, err := dnsmsg.ReadTCPMsg(c)
	if err != nil {
		t.Fatal(err)
	}
	var resp dnsmsg.Msg
	if err := resp.Unpack(out); err != nil {
		t.Fatal(err)
	}
	if len(resp.Answer) != 1 {
		t.Fatalf("resp=%+v", resp)
	}
	if st := s.Stats(); st.TLSQueries != 1 || st.TLSConnsTotal != 1 {
		t.Errorf("stats=%+v", st)
	}
}
