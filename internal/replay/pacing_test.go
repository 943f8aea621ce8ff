package replay

import (
	"context"
	"math/rand"
	"net/netip"
	"os"
	"sort"
	"testing"
	"time"

	"ldplayer/internal/obs"
	"ldplayer/internal/trace"
	"ldplayer/internal/transport"
)

// newPacedQuerier builds an unstarted querier whose pacer is live: the
// sleeper a Timed send loop would open, and realStart now.
func newPacedQuerier(tb testing.TB) *querier {
	tb.Helper()
	cfg := Config{Server: fabricServer}.withDefaults()
	q := newQuerier(cfg, newStats(obs.NewRegistry()))
	var err error
	if q.sleeper, err = transport.NewSleeper(context.Background()); err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(q.sleeper.Close)
	q.sync(time.Time{}, time.Now())
	return q
}

// TestPacerAccuracy drives a constant-gap schedule through the pacer and
// checks the send-time error against the exact deadlines: never early,
// and late by scheduler slop only.
func TestPacerAccuracy(t *testing.T) {
	const (
		gap = 5 * time.Millisecond
		n   = 40
		// CI boxes wake timers late; the pacer itself adds nothing.
		slop = 25 * time.Millisecond
	)
	q := newPacedQuerier(t)
	errs := make([]time.Duration, 0, n)
	for i := 1; i <= n; i++ {
		offset := time.Duration(i) * gap
		if _, ok := q.sleepUntil(offset); !ok {
			t.Fatal("sleepUntil returned early without cancellation")
		}
		lag := time.Since(q.realStart) - offset
		if lag < 0 {
			t.Fatalf("query %d sent %v early — the pacer must never wake a query before its deadline", i, -lag)
		}
		errs = append(errs, lag)
	}
	sort.Slice(errs, func(i, j int) bool { return errs[i] < errs[j] })
	if p99 := errs[len(errs)*99/100]; p99 > slop {
		t.Errorf("p99 send-time error %v exceeds scheduler slop", p99)
	}
	if med := errs[len(errs)/2]; med > 5*time.Millisecond {
		t.Errorf("median send-time error %v too large for exact deadlines", med)
	}
	// The pacer's own account: every wait armed the timer at least once
	// and reported its oversleep; a deadline already passed costs nothing.
	sleeps, woke := q.st.pacerSleeps.Value(), q.st.pacerOversleep.Count()
	if woke == 0 || woke > n || sleeps < woke {
		t.Errorf("pacer.sleeps=%d oversleep samples=%d over %d deadlines", sleeps, woke, n)
	}
	if _, ok := q.sleepUntil(gap); !ok || q.st.pacerSleeps.Value() != sleeps {
		t.Error("a query already due must pass without arming the timer")
	}
}

// timedEchoRun replays perSec queries a second for dur in Timed mode
// over the echo fabric (no sockets: the only fds the engine opens are
// the pacers').
func timedEchoRun(t *testing.T, queriers, perSec int, dur time.Duration) *Report {
	return echoRun(t, Config{
		Server:                 fabricServer,
		Dialer:                 echoFabric{},
		Distributors:           1,
		QueriersPerDistributor: queriers,
		ResponseTimeout:        250 * time.Millisecond,
	}, perSec, dur)
}

// echoRun replays a perSec-a-second schedule of dur through an engine
// built from cfg.
func echoRun(t *testing.T, cfg Config, perSec int, dur time.Duration) *Report {
	t.Helper()
	n := int(dur.Seconds() * float64(perSec))
	events := benchEvents(t, 16, n)
	for i, ev := range events {
		cp := *ev
		cp.Time = time.Unix(0, 0).Add(time.Duration(i) * time.Second / time.Duration(perSec))
		events[i] = &cp
	}
	eng, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := eng.Run(context.Background(), &sliceReader{events: events})
	if err != nil {
		t.Fatal(err)
	}
	if int(rep.Sent) != n {
		t.Fatalf("sent %d of %d (send errors %d)", rep.Sent, n, rep.SendErrs)
	}
	return rep
}

// TestTimedReplayNeverEarly: end to end through the engine, no query of
// a 0.5 s, 2 kq/s Timed replay leaves before its trace offset.
func TestTimedReplayNeverEarly(t *testing.T) {
	rep := timedEchoRun(t, 2, 2000, 500*time.Millisecond)
	earliest := time.Duration(1 << 62)
	for _, r := range rep.Results {
		earliest = min(earliest, r.SentOffset-r.TraceOffset)
	}
	if len(rep.Results) == 0 || earliest < 0 {
		t.Errorf("min(SentOffset − TraceOffset) = %v over %d results, want ≥ 0", earliest, len(rep.Results))
	}
}

// TestPacerYieldOnlyWhenPaced: every Timed wait lands in
// replay.pacer.yield_seconds, and a FastAsPossible run of the same
// schedule, which never reaches the pacer, records no yield time.
func TestPacerYieldOnlyWhenPaced(t *testing.T) {
	for _, mode := range []Mode{Timed, FastAsPossible} {
		reg := obs.NewRegistry()
		echoRun(t, Config{
			Server:                 fabricServer,
			Dialer:                 echoFabric{},
			Mode:                   mode,
			Distributors:           1,
			QueriersPerDistributor: 2,
			ResponseTimeout:        250 * time.Millisecond,
			Obs:                    reg,
		}, 2000, 100*time.Millisecond)
		y := reg.Snapshot().Histograms["replay.pacer.yield_seconds"]
		if mode == Timed && y.Count == 0 {
			t.Error("a Timed run at 2 kq/s recorded no pacer waits")
		}
		if mode == FastAsPossible && (y.Count != 0 || y.Sum != 0) {
			t.Errorf("FastAsPossible recorded %d yields, %v s", y.Count, y.Sum)
		}
	}
}

// TestPacerClosesTimerFD: every querier's pacer releases its timer fd
// when its run ends, so an engine run leaves the fd table as it found it.
func TestPacerClosesTimerFD(t *testing.T) {
	openFDs := func() int {
		ents, err := os.ReadDir("/proc/self/fd")
		if err != nil {
			t.Skipf("no fd table to count: %v", err)
		}
		return len(ents)
	}
	run := func() { timedEchoRun(t, 8, 2000, 50*time.Millisecond) }
	run() // first use opens the runtime's own poller fds
	before := openFDs()
	run()
	if after := openFDs(); after != before {
		t.Errorf("open fds: %d before an 8-querier Timed run, %d after", before, after)
	}
}

// TestBatchedDistributionSameSourceFIFO: a source's queries must arrive
// at its querier in trace order even when they straddle batch
// boundaries and share batches with other sources. Items are routed and
// batched as the controller does it — sticky picks the querier lane,
// the laneBatcher cuts and flushes per-lane batches — and the queriers
// are built but never started, so their inbound channels record exactly
// what the controller delivered, in order.
func TestBatchedDistributionSameSourceFIFO(t *testing.T) {
	cfg := Config{
		Server:                 netip.MustParseAddrPort("127.0.0.1:53"),
		QueriersPerDistributor: 3,
		BatchSize:              4,
		ChannelDepth:           8192,
	}.withDefaults()
	st := newStats(obs.NewRegistry())
	qs := make([]*querier, cfg.QueriersPerDistributor)
	outs := make([]chan *batch, len(qs))
	for i := range qs {
		qs[i] = newQuerier(cfg, st)
		outs[i] = qs[i].in
	}
	router := newSticky(len(qs))
	lb := newLaneBatcher(outs, cfg.BatchSize)

	// 8 sources, 50 queries each, in a seeded shuffle (so a source can
	// recur within one batch), read in chunks of cycling sizes 1..5 and
	// flushed after each chunk as runBatched flushes after a read: all
	// lanes after a chunk shorter than BatchSize, idle lanes otherwise.
	// Batch boundaries land everywhere relative to each source's
	// queries.
	const sources, perSource = 8, 50
	order := make([]int, 0, sources*perSource)
	for s := range sources {
		for range perSource {
			order = append(order, s)
		}
	}
	rand.New(rand.NewSource(1)).Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
	cut, inCut := 1, 0
	for seq, s := range order {
		ev := &trace.Event{Src: netip.AddrPortFrom(netip.AddrFrom4([4]byte{10, 0, 0, byte(s)}), 5000)}
		lb.add(router.pick(ev.Src.Addr()), item{ev: ev, offset: time.Duration(seq)})
		if inCut++; inCut == cut {
			if cut < cfg.BatchSize {
				lb.flushAll()
			} else {
				lb.flushIdle()
			}
			cut, inCut = cut%5+1, 0
		}
	}
	lb.closeAll()

	owner := map[netip.Addr]int{}
	lastOffset := map[netip.Addr]time.Duration{}
	total := 0
	for qi, q := range qs {
		for b := range q.in {
			for _, it := range b.items {
				src := it.ev.Src.Addr()
				if prev, ok := owner[src]; ok && prev != qi {
					t.Fatalf("source %v moved from querier %d to %d", src, prev, qi)
				}
				owner[src] = qi
				if last, ok := lastOffset[src]; ok && it.offset <= last {
					t.Fatalf("source %v reordered: offset %d after %d", src, it.offset, last)
				}
				lastOffset[src] = it.offset
				total++
			}
		}
	}
	if total != sources*perSource {
		t.Fatalf("delivered %d queries, want %d", total, sources*perSource)
	}
}
