package replay

import (
	"context"
	"io"
	"net"
	"net/netip"
	"runtime/debug"
	"testing"
	"time"

	"ldplayer/internal/dnsmsg"
	"ldplayer/internal/trace"
	"ldplayer/internal/transport"
)

// The replay benchmarks measure the engine data plane end to end, two
// ways:
//
//   - The gated pair, BenchmarkReplayFastUDP vs
//     BenchmarkReplayFastUDPReference, runs over echoFabric (see
//     fabric_test.go): a kernel-free packet fabric that reflects every
//     query and charges one hand-off per syscall-equivalent. This pair
//     isolates what the batched plane actually changed — distribution,
//     send-path, and matching cost per query — and `make bench-check`
//     requires the batched plane to hold a ≥5× qps advantage over the
//     per-item reference plane in the same run.
//
//   - The *Loopback variants drive real UDP sockets against an
//     allocation-free recvmmsg/sendmmsg echo sink. They are reported,
//     not gated on a ratio: loopback charges ~2µs of kernel delivery
//     per datagram inside the sender's syscall in BOTH planes, a
//     constant floor that batching cannot amortize and that caps the
//     observable end-to-end ratio near 2× no matter how much engine
//     overhead is removed. The allocation figure is gated (0 allocs/op
//     on the batched send path) since it is kernel-independent.

// startEchoSink runs the reflector until the returned stop is called.
func startEchoSink(tb testing.TB) (netip.AddrPort, func()) {
	tb.Helper()
	pc, err := net.ListenUDP("udp4", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		tb.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		ub := transport.NewUDPBatch(pc)
		msp := transport.GetBatch()
		defer transport.PutBatch(msp)
		ms := *msp
		for {
			n, err := ub.ReadBatch(ms)
			if err != nil {
				return
			}
			for i := range ms[:n] {
				ms[i].Buf = ms[i].Buf[:ms[i].N]
				if ms[i].N >= 3 {
					ms[i].Buf[2] |= 0x80 // QR: make it a response
				}
			}
			if _, err := ub.WriteBatch(ms[:n]); err != nil {
				return
			}
			for i := range ms[:n] {
				ms[i].Buf = ms[i].Buf[:cap(ms[i].Buf)]
			}
		}
	}()
	stop := func() {
		pc.Close()
		<-done
	}
	return pc.LocalAddr().(*net.UDPAddr).AddrPort(), stop
}

// cycleSource serves total events by cycling a small prebuilt set — a
// trace.BatchReader, so the controller stays on its bulk input path
// while the benchmark's working set stays cache-resident.
type cycleSource struct {
	events   []*trace.Event
	n, total int
}

func (c *cycleSource) Read() (*trace.Event, error) {
	if c.n >= c.total {
		return nil, io.EOF
	}
	e := c.events[c.n%len(c.events)]
	c.n++
	return e, nil
}

func (c *cycleSource) ReadBatch(dst []*trace.Event) (int, error) {
	if c.n >= c.total {
		return 0, io.EOF
	}
	k := 0
	for k < len(dst) && c.n < c.total {
		dst[k] = c.events[c.n%len(c.events)]
		k++
		c.n++
	}
	return k, nil
}

// benchEvents builds the cycled working set: UDP queries from `sources`
// distinct clients, 1µs apart.
func benchEvents(tb testing.TB, sources, count int) []*trace.Event {
	tb.Helper()
	base := time.Unix(0, 0)
	events := make([]*trace.Event, count)
	for i := range events {
		var m dnsmsg.Msg
		m.SetQuestion(dnsmsg.MustParseName("www.example.com."), dnsmsg.TypeA)
		wire, err := m.Pack()
		if err != nil {
			tb.Fatal(err)
		}
		events[i] = &trace.Event{
			Time:  base.Add(time.Duration(i) * time.Microsecond),
			Src:   netip.AddrPortFrom(netip.AddrFrom4([4]byte{10, 0, 0, byte(i % sources)}), 5000),
			Proto: trace.UDP,
			Wire:  wire,
		}
	}
	return events
}

// benchReplay runs one full replay over b.N events and reports qps.
func benchReplay(b *testing.B, cfg Config, reference bool) {
	events := benchEvents(b, 4, 1024)
	b.ReportAllocs()
	b.ResetTimer()
	rep, err := runPlane(context.Background(), cfg, &cycleSource{events: events, total: b.N}, reference)
	b.StopTimer()
	if err != nil {
		b.Fatal(err)
	}
	if int(rep.Sent+rep.SendErrs) != b.N {
		b.Fatalf("attempted=%d want %d", rep.Sent+rep.SendErrs, b.N)
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "qps")
}

func fastConfig(server netip.AddrPort, dialer transport.PacketDialer) Config {
	return Config{
		Server:                 server,
		Mode:                   FastAsPossible,
		DropResults:            true,
		Distributors:           1,
		QueriersPerDistributor: 2,
		ResponseTimeout:        100 * time.Millisecond,
		Dialer:                 dialer,
	}
}

// fabricServer is the nominal destination on the echo fabric; the
// fabric reflects regardless of address.
var fabricServer = netip.MustParseAddrPort("192.0.2.53:53")

// BenchmarkReplayFastUDP: the batched plane — batch distribution,
// batched socket hand-off, lock-free ID-slot response matching — over
// the kernel-free echo fabric.
func BenchmarkReplayFastUDP(b *testing.B) {
	benchReplay(b, fastConfig(fabricServer, echoFabric{}), false)
}

// BenchmarkReplayFastUDPReference: the per-item plane the batched one
// replaced, over the same fabric; the speedup gate divides the two qps
// figures.
func BenchmarkReplayFastUDPReference(b *testing.B) {
	benchReplay(b, fastConfig(fabricServer, echoFabric{}), true)
}

// BenchmarkReplayFastUDPLoopback: the batched plane over real sockets
// and the sendmmsg echo sink — absolute qps against a kernel.
func BenchmarkReplayFastUDPLoopback(b *testing.B) {
	ap, stop := startEchoSink(b)
	defer stop()
	benchReplay(b, fastConfig(ap, nil), false)
}

// BenchmarkReplayFastUDPLoopbackReference: the per-item plane over the
// same real sockets, for the (kernel-floored) end-to-end comparison.
func BenchmarkReplayFastUDPLoopbackReference(b *testing.B) {
	ap, stop := startEchoSink(b)
	defer stop()
	benchReplay(b, fastConfig(ap, nil), true)
}

// BenchmarkReplayTimed drives the Timed plane (deadline pacer, the
// querier's one UDP sender) with a schedule that is always behind wall
// clock, so the benchmark measures data-plane overhead — the pacer's
// already-due check included, sleeping excluded (BenchmarkPacerSleep
// has that).
func BenchmarkReplayTimed(b *testing.B) {
	ap, stop := startEchoSink(b)
	defer stop()
	benchReplay(b, Config{
		Server:                 ap,
		Mode:                   Timed,
		DropResults:            true,
		Distributors:           1,
		QueriersPerDistributor: 2,
		ResponseTimeout:        250 * time.Millisecond,
	}, false)
}

// BenchmarkPacerSleep waits out one 200 µs deadline per op: the cost of
// arm + park + wake (0 allocs/op) and, as oversleep-µs, how long after
// its deadline the pacer woke — reported, not gated: it is the host's
// timer and scheduler latency.
func BenchmarkPacerSleep(b *testing.B) {
	q := newPacedQuerier(b)
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		q.sleepUntil(time.Since(q.realStart) + 200*time.Microsecond)
	}
	b.ReportMetric(q.st.pacerOversleep.Sum()/float64(b.N)*1e6, "oversleep-µs")
}

// BenchmarkReportAssembly merges three querier logs of 100 000 results
// in all, interleaved query by query, into the report: one allocation
// per op, the exact-size Results slice.
func BenchmarkReportAssembly(b *testing.B) {
	const total, k = 100_000, 3
	offs := make([][]time.Duration, k)
	for i := range total {
		offs[i%k] = append(offs[i%k], time.Duration(i)*time.Microsecond)
	}
	logs := make([]*queryReport, k)
	for i := range logs {
		logs[i] = fillLog(offs[i], netip.AddrFrom4([4]byte{10, 0, 0, byte(i)}))
	}
	// Each op allocates 5.6 MB, a collection per op at the default
	// GOGC, and the runtime allocates on its own after every collection
	// (the unique package's map cleanup behind netip.Addr); spacing the
	// collections out keeps that out of the merge's allocs/op.
	defer debug.SetGCPercent(debug.SetGCPercent(400))
	b.ReportAllocs()
	for b.Loop() {
		if len(mergeResults(logs)) != total {
			b.Fatal("short merge")
		}
	}
}
