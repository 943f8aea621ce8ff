package replay

import (
	"context"
	"net"
	"net/netip"
	"testing"
	"time"

	"ldplayer/internal/dnsmsg"
	"ldplayer/internal/trace"
	"ldplayer/internal/workload"
)

// TestReplayAgainstDeadServer: every UDP query sends fine (UDP has no
// handshake) but nothing answers; the engine reports timeouts, not a
// hang.
func TestReplayAgainstDeadServer(t *testing.T) {
	// A bound-then-closed port: nothing listens.
	pc, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	dead := pc.LocalAddr().(*net.UDPAddr).AddrPort()
	pc.Close()

	tr := workload.Synthetic(workload.SyntheticConfig{
		InterArrival: time.Millisecond, Duration: 50 * time.Millisecond, Clients: 5, Seed: 1,
	})
	eng, err := New(Config{
		Server:          netip.AddrPortFrom(netip.MustParseAddr("127.0.0.1"), dead.Port()),
		ResponseTimeout: 200 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan *Report, 1)
	go func() {
		rep, err := eng.Run(context.Background(), &sliceReader{events: tr.Events})
		if err != nil {
			t.Error(err)
		}
		done <- rep
	}()
	select {
	case rep := <-done:
		if rep == nil {
			return
		}
		if rep.Responses != 0 {
			t.Errorf("responses=%d from a dead server", rep.Responses)
		}
		if rep.Timeouts == 0 {
			t.Error("no timeouts recorded")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("replay hung on dead server")
	}
}

// TestReplayTCPConnectRefused: stream queries against a closed port
// count as send errors and the engine completes.
func TestReplayTCPConnectRefused(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	refused := ln.Addr().(*net.TCPAddr).AddrPort()
	ln.Close()

	var m dnsmsg.Msg
	m.SetQuestion("www.example.com.", dnsmsg.TypeA)
	wire, _ := m.Pack()
	var events []*trace.Event
	base := time.Now()
	for i := 0; i < 10; i++ {
		events = append(events, &trace.Event{
			Time: base, Src: netip.MustParseAddrPort("10.0.0.1:5000"),
			Dst: workload.ServerAddr, Proto: trace.TCP, Wire: wire,
		})
	}
	eng, err := New(Config{
		Server:          netip.AddrPortFrom(netip.MustParseAddr("127.0.0.1"), refused.Port()),
		Mode:            FastAsPossible,
		ResponseTimeout: 200 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := eng.Run(context.Background(), &sliceReader{events: events})
	if err != nil {
		t.Fatal(err)
	}
	if rep.SendErrs != 10 {
		t.Errorf("sendErrs=%d want 10", rep.SendErrs)
	}
	if rep.Sent != 0 {
		t.Errorf("sent=%d want 0", rep.Sent)
	}
}

// TestReplayServerDiesMidway: the server answers the first half of the
// trace and then vanishes; the engine finishes with partial responses.
func TestReplayServerDiesMidway(t *testing.T) {
	srv, ap, stop := testServer(t)
	tr := workload.Synthetic(workload.SyntheticConfig{
		InterArrival: 10 * time.Millisecond, Duration: time.Second, Clients: 4, Seed: 2,
	})
	eng, err := New(Config{Server: ap, ResponseTimeout: 300 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		time.Sleep(400 * time.Millisecond)
		stop() // the server disappears mid-replay
	}()
	rep, err := eng.Run(context.Background(), &sliceReader{events: tr.Events})
	if err != nil {
		t.Fatal(err)
	}
	// After the server dies the queriers' unconnected sockets get no ICMP
	// error back: sends still succeed and their queries time out. Either
	// way every query is attempted.
	if got := int(rep.Sent + rep.SendErrs); got != len(tr.Events) {
		t.Errorf("attempted=%d want %d (replay must not stall on server death)", got, len(tr.Events))
	}
	if rep.Responses == 0 {
		t.Error("no responses before the server died")
	}
	if rep.Responses >= uint64(len(tr.Events)) {
		t.Error("server answered everything despite dying midway")
	}
	_ = srv
}

// TestReplayCancelledContext stops promptly and reports partial work.
func TestReplayCancelledContext(t *testing.T) {
	_, ap, stop := testServer(t)
	defer stop()
	tr := workload.Synthetic(workload.SyntheticConfig{
		InterArrival: 10 * time.Millisecond, Duration: 10 * time.Second, Clients: 4, Seed: 3,
	})
	ctx, cancel := context.WithTimeout(context.Background(), 300*time.Millisecond)
	defer cancel()
	eng, err := New(Config{Server: ap, ResponseTimeout: 100 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	rep, err := eng.Run(ctx, &sliceReader{events: tr.Events})
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("cancellation took %v", elapsed)
	}
	// Either a context error or a partial report is acceptable; a full
	// replay of the 10-second trace is not.
	if err == nil && rep != nil && int(rep.Sent) == len(tr.Events) {
		t.Error("cancelled replay sent the whole trace")
	}
}

// TestFastUDPRefusedDatagrams: datagrams the socket refuses inside a
// batch write are send errors and nothing else — each is settled once
// (not again as a timeout when its slot is swept) and drain does not
// sit out ResponseTimeout waiting for replies that cannot come.
func TestFastUDPRefusedDatagrams(t *testing.T) {
	const n, k = 200, 7
	cfg := fastConfig(fabricServer, echoFabric{refuse: k})
	cfg.QueriersPerDistributor = 1 // one socket, so exactly k refusals
	cfg.ResponseTimeout = 5 * time.Second
	start := time.Now()
	rep, err := runPlane(context.Background(), cfg, &cycleSource{events: benchEvents(t, 4, 64), total: n}, false)
	if err != nil {
		t.Fatal(err)
	}
	if took := time.Since(start); took > cfg.ResponseTimeout/2 {
		t.Errorf("run took %v: drain waited on refused datagrams", took)
	}
	if rep.SendErrs != k || rep.Timeouts != 0 || rep.Sent+rep.SendErrs != n || rep.Responses != rep.Sent {
		t.Errorf("sent=%d sendErrs=%d responses=%d timeouts=%d; want %d/%d/%d/0",
			rep.Sent, rep.SendErrs, rep.Responses, rep.Timeouts, n-k, k, n-k)
	}
}
