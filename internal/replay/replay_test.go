package replay

import (
	"context"
	"net"
	"net/netip"
	"testing"
	"time"

	"ldplayer/internal/dnsmsg"
	"ldplayer/internal/server"
	"ldplayer/internal/trace"
	"ldplayer/internal/transport"
	"ldplayer/internal/workload"
	"ldplayer/internal/zonegen"
)

// testServer runs a real authoritative server on loopback UDP+TCP(+TLS)
// serving a wildcard example.com zone, as in the paper's §4.1 setup.
func testServer(t testing.TB) (*server.Server, netip.AddrPort, func()) {
	t.Helper()
	s := server.New(server.Config{TCPIdleTimeout: 5 * time.Second})
	if err := s.AddZone(zonegen.WildcardZone("example.com.")); err != nil {
		t.Fatal(err)
	}
	pc, ln, ap, err := transport.ListenUDPTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	go s.ServeUDP(ctx, pc)
	go s.ServeTCP(ctx, ln)
	stop := func() {
		cancel()
		pc.Close()
		ln.Close()
	}
	return s, ap, stop
}

type sliceReader struct {
	events []*trace.Event
	i      int
}

func (s *sliceReader) Read() (*trace.Event, error) {
	if s.i >= len(s.events) {
		return nil, errEOF
	}
	e := s.events[s.i]
	s.i++
	return e, nil
}

func TestReplayUDPTimedAccuracy(t *testing.T) {
	_, ap, stop := testServer(t)
	defer stop()

	// 2-second synthetic trace, 10 ms inter-arrival (a scaled syn-2).
	tr := workload.Synthetic(workload.SyntheticConfig{
		InterArrival: 10 * time.Millisecond,
		Duration:     2 * time.Second,
		Clients:      20,
		Seed:         1,
	})
	eng, err := New(Config{Server: ap, Distributors: 1, QueriersPerDistributor: 2})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := eng.Run(context.Background(), &sliceReader{events: tr.Events})
	if err != nil {
		t.Fatal(err)
	}
	if int(rep.Sent) != len(tr.Events) {
		t.Fatalf("sent=%d want %d (errs=%d)", rep.Sent, len(tr.Events), rep.SendErrs)
	}
	if rep.Responses < rep.Sent*9/10 {
		t.Errorf("responses=%d of %d", rep.Responses, rep.Sent)
	}
	// Timing error: |sent - intended| small. The paper reports quartiles
	// within ±2.5 ms on dedicated hardware; this is a shared CI box, so
	// assert a loose envelope and that the median is tight.
	var errs []time.Duration
	for _, r := range rep.Results {
		d := r.SentOffset - r.TraceOffset
		if d < 0 {
			d = -d
		}
		errs = append(errs, d)
	}
	if len(errs) == 0 {
		t.Fatal("no results recorded")
	}
	median := medianDur(errs)
	if median > 20*time.Millisecond {
		t.Errorf("median timing error %v too large", median)
	}
	// The replay must not finish grossly early (timing was honored): a
	// 2-second trace cannot replay in under half its span.
	if rep.Duration < time.Second {
		t.Errorf("replay finished in %v — timers ignored", rep.Duration)
	}
}

func medianDur(ds []time.Duration) time.Duration {
	cp := append([]time.Duration(nil), ds...)
	for i := 1; i < len(cp); i++ {
		for j := i; j > 0 && cp[j] < cp[j-1]; j-- {
			cp[j], cp[j-1] = cp[j-1], cp[j]
		}
	}
	return cp[len(cp)/2]
}

func TestReplayFastModeIgnoresTiming(t *testing.T) {
	_, ap, stop := testServer(t)
	defer stop()
	tr := workload.Synthetic(workload.SyntheticConfig{
		InterArrival: 100 * time.Millisecond, // 5 seconds of trace time
		Duration:     5 * time.Second,
		Clients:      5,
		Seed:         2,
	})
	eng, err := New(Config{Server: ap, Mode: FastAsPossible})
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	rep, err := eng.Run(context.Background(), &sliceReader{events: tr.Events})
	if err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed > 3*time.Second {
		t.Errorf("fast mode took %v for a 5s trace", elapsed)
	}
	if int(rep.Sent) != len(tr.Events) {
		t.Errorf("sent=%d want %d", rep.Sent, len(tr.Events))
	}
}

func TestReplayTCPConnectionReuse(t *testing.T) {
	srv, ap, stop := testServer(t)
	defer stop()
	// 30 queries from only 3 sources, all TCP: with same-source affinity
	// and connection reuse the queriers must open exactly 3 connections.
	var events []*trace.Event
	base := time.Now()
	for i := 0; i < 30; i++ {
		var m dnsmsg.Msg
		m.ID = uint16(i)
		m.SetQuestion(dnsmsg.MustParseName("www.example.com."), dnsmsg.TypeA)
		wire, _ := m.Pack()
		src := netip.AddrPortFrom(netip.AddrFrom4([4]byte{10, 0, 0, byte(i % 3)}), 5000)
		events = append(events, &trace.Event{
			Time: base.Add(time.Duration(i) * time.Millisecond),
			Src:  src, Dst: workload.ServerAddr, Proto: trace.TCP, Wire: wire,
		})
	}
	eng, err := New(Config{
		Server: ap, Distributors: 2, QueriersPerDistributor: 2,
		ConnIdleTimeout: 2 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := eng.Run(context.Background(), &sliceReader{events: events})
	if err != nil {
		t.Fatal(err)
	}
	if rep.ConnsOpened != 3 {
		t.Errorf("connections opened=%d want 3 (reuse broken)", rep.ConnsOpened)
	}
	if got := srv.Stats().TCPConnsTotal; got != 3 {
		t.Errorf("server saw %d connections, want 3", got)
	}
	if rep.Responses != 30 {
		t.Errorf("responses=%d", rep.Responses)
	}
	// Exactly 3 results are fresh-connection sends.
	fresh := 0
	for _, r := range rep.Results {
		if r.FreshConn {
			fresh++
		}
	}
	if fresh != 3 {
		t.Errorf("fresh=%d want 3", fresh)
	}
}

func TestReplayTLS(t *testing.T) {
	s := server.New(server.Config{TCPIdleTimeout: 5 * time.Second})
	if err := s.AddZone(zonegen.WildcardZone("example.com.")); err != nil {
		t.Fatal(err)
	}
	srvCfg, cliCfg, err := server.SelfSignedTLS("127.0.0.1")
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
	ap := ln.Addr().(*net.TCPAddr).AddrPort()

	var events []*trace.Event
	base := time.Now()
	for i := 0; i < 10; i++ {
		var m dnsmsg.Msg
		m.SetQuestion(dnsmsg.MustParseName("www.example.com."), dnsmsg.TypeA)
		wire, _ := m.Pack()
		events = append(events, &trace.Event{
			Time: base.Add(time.Duration(i) * time.Millisecond),
			Src:  netip.MustParseAddrPort("10.0.0.1:5000"),
			Dst:  workload.ServerAddr, Proto: trace.TLS, Wire: wire,
		})
	}
	eng, err := New(Config{Server: ap, TLSConfig: cliCfg})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := eng.Run(context.Background(), &sliceReader{events: events})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Sent != 10 || rep.Responses != 10 {
		t.Errorf("sent=%d responses=%d errs=%d", rep.Sent, rep.Responses, rep.SendErrs)
	}
	if rep.ConnsOpened != 1 {
		t.Errorf("TLS connections=%d want 1", rep.ConnsOpened)
	}
	if st := s.Stats(); st.TLSQueries != 10 {
		t.Errorf("server TLS queries=%d", st.TLSQueries)
	}
}

func TestReplaySameSourceAffinity(t *testing.T) {
	// Unit-level: the sticky router pins a source to a lane forever.
	s := newSticky(4)
	a := netip.MustParseAddr("10.0.0.1")
	b := netip.MustParseAddr("10.0.0.2")
	la, lb := s.pick(a), s.pick(b)
	for i := 0; i < 50; i++ {
		if s.pick(a) != la || s.pick(b) != lb {
			t.Fatal("sticky routing moved a source between lanes")
		}
	}
	// Load spreads: on a fresh router, distinct sources with equal load
	// cover all lanes.
	s2 := newSticky(4)
	seen := map[int]bool{}
	for i := 0; i < 16; i++ {
		seen[s2.pick(netip.AddrFrom4([4]byte{10, 1, 0, byte(i)}))] = true
	}
	if len(seen) != 4 {
		t.Errorf("lanes used=%d want 4", len(seen))
	}
}

func TestReplayRejectsNoServer(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Error("config without server accepted")
	}
}

func TestReplaySkipsResponsesInInput(t *testing.T) {
	_, ap, stop := testServer(t)
	defer stop()
	var m dnsmsg.Msg
	m.SetQuestion("www.example.com.", dnsmsg.TypeA)
	qw, _ := m.Pack()
	var resp dnsmsg.Msg
	resp.SetReply(&m)
	rw, _ := resp.Pack()
	base := time.Now()
	events := []*trace.Event{
		{Time: base, Src: netip.MustParseAddrPort("10.0.0.1:5000"), Dst: workload.ServerAddr, Proto: trace.UDP, Wire: qw},
		{Time: base, Src: workload.ServerAddr, Dst: netip.MustParseAddrPort("10.0.0.1:5000"), Proto: trace.UDP, Wire: rw},
	}
	eng, _ := New(Config{Server: ap})
	rep, err := eng.Run(context.Background(), &sliceReader{events: events})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Sent != 1 {
		t.Errorf("sent=%d want 1 (responses must not be replayed)", rep.Sent)
	}
}
