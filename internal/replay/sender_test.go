package replay

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/netip"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"ldplayer/internal/dnsmsg"
	"ldplayer/internal/obs"
	"ldplayer/internal/trace"
)

// openSockets counts this process's socket descriptors.
func openSockets() (int, error) {
	const dir = "/proc/self/fd"
	ents, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	n := 0
	for _, e := range ents {
		if l, err := os.Readlink(filepath.Join(dir, e.Name())); err == nil && strings.HasPrefix(l, "socket:") {
			n++
		}
	}
	return n, nil
}

// settledSockets is openSockets once the count holds still for three
// readings 10 ms apart (or after a second): a socket an earlier test
// closed stays in the table until its blocked reader returns.
func settledSockets() (int, error) {
	n, err := openSockets()
	for same, tries := 0, 0; err == nil && same < 2 && tries < 100; tries++ {
		time.Sleep(10 * time.Millisecond)
		var m int
		if m, err = openSockets(); m == n {
			same++
		} else {
			n, same = m, 0
		}
	}
	return n, err
}

// TestTimedUDPOneSocketPerQuerier: a Timed UDP replay of 2000 sources
// over real loopback opens one socket per querier, not one per source,
// and dials no transport.Conn — while each result still names its trace
// source, no query leaves early, and a source's queries go out in trace
// order. The engine runs Distributors × QueriersPerDistributor queriers.
func TestTimedUDPOneSocketPerQuerier(t *testing.T) {
	for _, c := range []struct{ dists, perDist int }{{1, 2}, {2, 2}} {
		t.Run(fmt.Sprintf("%dx%d", c.dists, c.perDist), func(t *testing.T) {
			testTimedUDPOneSocketPerQuerier(t, c.dists, c.perDist)
		})
	}
}

func testTimedUDPOneSocketPerQuerier(t *testing.T, dists, perDist int) {
	const sources, perSource = 2000, 2
	const gap = 100 * time.Microsecond
	queriers := dists * perDist
	_, ap, stop := testServer(t)
	defer stop()

	var m dnsmsg.Msg
	m.SetQuestion(dnsmsg.MustParseName("www.example.com."), dnsmsg.TypeA)
	wire, err := m.Pack()
	if err != nil {
		t.Fatal(err)
	}
	srcOf := func(s int) netip.Addr { return netip.AddrFrom4([4]byte{10, 1, byte(s >> 8), byte(s)}) }
	events := make([]*trace.Event, sources*perSource)
	for i := range events {
		// Each source's queries are back to back, gap apart.
		events[i] = &trace.Event{
			Time:  time.Unix(0, 0).Add(time.Duration(i) * gap),
			Src:   netip.AddrPortFrom(srcOf(i/perSource), 5000),
			Proto: trace.UDP,
			Wire:  wire,
		}
	}
	eng, err := New(Config{Server: ap, Distributors: dists, QueriersPerDistributor: perDist})
	if err != nil {
		t.Fatal(err)
	}

	dials := obs.Default.Counter("transport.conn.dials")
	dials0 := dials.Value()
	before, err := settledSockets()
	if err != nil {
		t.Skipf("no fd table to count: %v", err)
	}
	peak := make(chan int)
	done := make(chan struct{})
	go func() {
		most := before
		for {
			if n, err := openSockets(); err == nil {
				most = max(most, n)
			}
			select {
			case <-done:
				peak <- most
				return
			case <-time.After(5 * time.Millisecond):
			}
		}
	}()
	rep, err := eng.Run(context.Background(), &sliceReader{events: events})
	close(done)
	if err != nil {
		t.Fatal(err)
	}
	if opened := <-peak - before; opened != queriers {
		t.Errorf("%d sources over %d queriers opened %d sockets, want %d", sources, queriers, opened, queriers)
	}
	if d := dials.Value() - dials0; d != 0 {
		t.Errorf("transport.conn.dials moved by %d: UDP queries rode per-source Conns", d)
	}
	if int(rep.Sent) != len(events) || rep.Responses < rep.Sent*9/10 {
		t.Fatalf("sent=%d responses=%d of %d (send errors %d)", rep.Sent, rep.Responses, len(events), rep.SendErrs)
	}

	perSrc := map[netip.Addr]int{}
	lastSent := map[netip.Addr]time.Duration{}
	for _, r := range rep.Results { // in trace order
		perSrc[r.Src]++
		if r.SentOffset < r.TraceOffset {
			t.Fatalf("query at %v from %v sent %v early", r.TraceOffset, r.Src, r.TraceOffset-r.SentOffset)
		}
		if last, ok := lastSent[r.Src]; ok && r.SentOffset < last {
			t.Fatalf("source %v reordered: sent at %v after a later query at %v", r.Src, r.SentOffset, last)
		}
		lastSent[r.Src] = r.SentOffset
	}
	if len(perSrc) != sources {
		t.Fatalf("results name %d sources, want %d", len(perSrc), sources)
	}
	for s := range sources {
		if perSrc[srcOf(s)] != perSource {
			t.Fatalf("source %v has %d results, want %d", srcOf(s), perSrc[srcOf(s)], perSource)
		}
	}
}

// noPacketFabric is an echo fabric that cannot open a datagram socket.
type noPacketFabric struct{ echoFabric }

func (noPacketFabric) ListenPacketConn() (net.PacketConn, error) {
	return nil, errors.New("no datagram sockets here")
}

// TestUDPSenderUnavailable: when the querier's UDP socket cannot be
// opened, every UDP query is a send error — no fallback, no timeouts —
// and the run ends without waiting out ResponseTimeout.
func TestUDPSenderUnavailable(t *testing.T) {
	const n = 200
	for mode, name := range map[Mode]string{FastAsPossible: "fast", Timed: "timed"} {
		cfg := fastConfig(fabricServer, noPacketFabric{})
		cfg.Mode = mode
		cfg.ResponseTimeout = 5 * time.Second
		start := time.Now()
		rep, err := runPlane(context.Background(), cfg, &cycleSource{events: benchEvents(t, 4, 64), total: n}, false)
		if err != nil {
			t.Fatal(err)
		}
		if took := time.Since(start); took > cfg.ResponseTimeout/2 {
			t.Errorf("%s: run took %v", name, took)
		}
		if rep.SendErrs != n || rep.Sent != 0 || rep.Responses != 0 || rep.Timeouts != 0 {
			t.Errorf("%s: sent=%d sendErrs=%d responses=%d timeouts=%d; want 0/%d/0/0",
				name, rep.Sent, rep.SendErrs, rep.Responses, rep.Timeouts, n)
		}
	}
}

// askingFabric is the echo fabric whose packet sockets record the
// receive buffer the engine asks of them.
type askingFabric struct {
	echoFabric
	asked *atomic.Int64
}

type askedPacketConn struct {
	*echoPacketConn
	asked *atomic.Int64
}

func (c askedPacketConn) SetReadBuffer(n int) error {
	c.asked.Store(int64(n))
	return nil
}

func (f askingFabric) ListenPacketConn() (net.PacketConn, error) {
	pc, err := f.echoFabric.ListenPacketConn()
	if err != nil {
		return nil, err
	}
	return askedPacketConn{pc.(*echoPacketConn), f.asked}, nil
}

// TestUDPSenderGrowsReadBuffer: in both modes the querier asks the
// socket its dialer hands it for a receive buffer of at least 4 MiB,
// so a stalled read loop does not turn replies into timeouts.
func TestUDPSenderGrowsReadBuffer(t *testing.T) {
	const n = 200
	for mode, name := range map[Mode]string{FastAsPossible: "fast", Timed: "timed"} {
		var asked atomic.Int64
		cfg := fastConfig(fabricServer, askingFabric{asked: &asked})
		cfg.Mode = mode
		rep, err := runPlane(context.Background(), cfg, &cycleSource{events: benchEvents(t, 4, 64), total: n}, false)
		if err != nil {
			t.Fatal(err)
		}
		if asked.Load() < 4<<20 || rep.Responses != n {
			t.Errorf("%s: asked for a %d-byte read buffer, %d of %d answered; want >= 4 MiB, all", name, asked.Load(), rep.Responses, n)
		}
	}
}

// TestUDPIDWrapCounted: with a server that never answers, one querier
// sending more than 65536 queries comes round to IDs that are still
// live. Each such query is written off early as a timeout and counted
// in IDWrapped; every query is still settled exactly once.
func TestUDPIDWrapCounted(t *testing.T) {
	const n = 1<<16 + 1000
	reg := obs.NewRegistry()
	cfg := fastConfig(fabricServer, echoFabric{silent: true})
	cfg.QueriersPerDistributor, cfg.Obs = 1, reg
	rep, err := runPlane(context.Background(), cfg, &cycleSource{events: benchEvents(t, 4, 64), total: n}, false)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Sent != n || rep.Responses != 0 || rep.SendErrs != 0 {
		t.Fatalf("sent=%d responses=%d sendErrs=%d; want %d/0/0", rep.Sent, rep.Responses, rep.SendErrs, n)
	}
	if rep.IDWrapped != n-1<<16 {
		t.Errorf("IDWrapped=%d, want %d", rep.IDWrapped, n-1<<16)
	}
	if got := reg.Snapshot().Counters["replay.id_wrapped"]; got != rep.IDWrapped {
		t.Errorf("replay.id_wrapped=%d, Report.IDWrapped=%d", got, rep.IDWrapped)
	}
	if rep.Responses+rep.Timeouts != rep.Sent {
		t.Errorf("responses %d + timeouts %d != sent %d", rep.Responses, rep.Timeouts, rep.Sent)
	}
}

// TestUDPShortReplies: a matched reply shorter than a DNS header is
// answered and bad, in both modes — not a timeout, and not an rcode
// read from whatever bytes are there.
func TestUDPShortReplies(t *testing.T) {
	const n = 200
	for mode, name := range map[Mode]string{FastAsPossible: "fast", Timed: "timed"} {
		for _, size := range []int{3, 11} {
			t.Run(fmt.Sprintf("%s/%dB", name, size), func(t *testing.T) {
				reg := obs.NewRegistry()
				cfg := fastConfig(fabricServer, echoFabric{truncate: size})
				cfg.Mode, cfg.Obs = mode, reg
				cfg.ResponseTimeout = 200 * time.Millisecond
				rep, err := runPlane(context.Background(), cfg, &cycleSource{events: benchEvents(t, 4, 64), total: n}, false)
				if err != nil {
					t.Fatal(err)
				}
				snap := reg.Snapshot()
				rcodes := uint64(0)
				for name, v := range snap.Counters {
					if strings.HasPrefix(name, "replay.rcode.") {
						rcodes += v
					}
				}
				if bad := snap.Counters["replay.bad_responses"]; bad != n || rep.Responses != n || rep.Timeouts != 0 || rcodes != 0 {
					t.Errorf("bad_responses=%d responses=%d timeouts=%d rcodes=%d; want %d/%d/0/0",
						bad, rep.Responses, rep.Timeouts, rcodes, n, n)
				}
			})
		}
	}
}

// TestUDPRcodesCountedPerDatagram: the UDP read loop receives into one
// pooled datagram batch (transport.GetBatch) that every ReadBatch
// overwrites, so whatever it keeps of a response must be taken before
// the next read. Here the echo fabric reflects queries whose headers
// alternate NOERROR and NXDOMAIN across many batches, and the per-rcode
// counters must split them exactly.
func TestUDPRcodesCountedPerDatagram(t *testing.T) {
	const n = 4000
	events := benchEvents(t, 4, 64)
	for i, e := range events {
		wire := append([]byte(nil), e.Wire...)
		if i%2 == 1 {
			wire[3] = wire[3]&0xf0 | byte(dnsmsg.RcodeNXDomain)
		}
		e.Wire = wire
	}
	reg := obs.NewRegistry()
	cfg := fastConfig(fabricServer, echoFabric{})
	cfg.Obs = reg
	rep, err := runPlane(context.Background(), cfg, &cycleSource{events: events, total: n}, false)
	if err != nil {
		t.Fatal(err)
	}
	snap := reg.Snapshot()
	noerr, nx := snap.Counters["replay.rcode.NOERROR"], snap.Counters["replay.rcode.NXDOMAIN"]
	if rep.Responses != n || noerr != n/2 || nx != n/2 {
		t.Errorf("responses=%d NOERROR=%d NXDOMAIN=%d; want %d, %d, %d", rep.Responses, noerr, nx, n, n/2, n/2)
	}
}
