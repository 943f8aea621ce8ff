package replay

import (
	"context"
	"fmt"
	"net/netip"
	"sort"
	"testing"
	"time"

	"ldplayer/internal/dnsmsg"
	"ldplayer/internal/trace"
	"ldplayer/internal/workload"
)

// TestBatchedMatchesReference replays the same mixed UDP/TCP trace
// through the batched data plane and the preserved reference plane and
// checks they are observably equivalent in Timed mode: same queries
// sent (as a multiset of trace offset, source, protocol), same
// connection-reuse behavior, everything answered. Timestamps are
// excluded — the planes agree on what and where, wall-clock jitter is
// tolerated by construction.
func TestBatchedMatchesReference(t *testing.T) {
	_, ap, stop := testServer(t)
	defer stop()

	mkEvents := func() []*trace.Event {
		var events []*trace.Event
		base := time.Now()
		for i := 0; i < 60; i++ {
			var m dnsmsg.Msg
			m.SetQuestion(dnsmsg.MustParseName(fmt.Sprintf("q%d.example.com.", i)), dnsmsg.TypeA)
			wire, _ := m.Pack()
			src := netip.AddrPortFrom(netip.AddrFrom4([4]byte{10, 0, 0, byte(i % 6)}), 5000)
			proto := trace.UDP
			if i%6 >= 3 { // sources 3..5 are TCP: exercises reuse on both planes
				proto = trace.TCP
			}
			events = append(events, &trace.Event{
				Time: base.Add(time.Duration(i) * time.Millisecond),
				Src:  src, Dst: workload.ServerAddr, Proto: proto, Wire: wire,
			})
		}
		return events
	}

	run := func(reference bool) *Report {
		t.Helper()
		rep, err := runPlane(context.Background(), Config{
			Server:                 ap,
			Distributors:           2,
			QueriersPerDistributor: 2,
			ConnIdleTimeout:        2 * time.Second,
			BatchSize:              4, // small batches: boundaries land mid-trace
		}, &sliceReader{events: mkEvents()}, reference)
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}

	batched, ref := run(false), run(true)

	if batched.Sent != ref.Sent {
		t.Errorf("sent: batched=%d reference=%d", batched.Sent, ref.Sent)
	}
	if batched.SendErrs != ref.SendErrs {
		t.Errorf("sendErrs: batched=%d reference=%d", batched.SendErrs, ref.SendErrs)
	}
	// Both planes stick each source to one querier — the batched plane
	// with one sticky over its four queriers, the reference with a
	// sticky per level of its 2 × 2 tree — so connection reuse must
	// agree exactly: 3 TCP sources → 3 connections, each opened once.
	if batched.ConnsOpened != ref.ConnsOpened {
		t.Errorf("connsOpened: batched=%d reference=%d", batched.ConnsOpened, ref.ConnsOpened)
	}
	if batched.ConnsOpened != 3 {
		t.Errorf("connsOpened=%d want 3", batched.ConnsOpened)
	}
	if batched.Responses != ref.Responses {
		t.Errorf("responses: batched=%d reference=%d", batched.Responses, ref.Responses)
	}

	key := func(r QueryResult) string {
		return fmt.Sprintf("%v/%v/%v/fresh=%v/answered=%v",
			r.TraceOffset, r.Src, r.Proto, r.FreshConn, r.RTT >= 0)
	}
	keysOf := func(rep *Report) []string {
		ks := make([]string, 0, len(rep.Results))
		for _, r := range rep.Results {
			ks = append(ks, key(r))
		}
		sort.Strings(ks)
		return ks
	}
	bk, rk := keysOf(batched), keysOf(ref)
	if len(bk) != len(rk) {
		t.Fatalf("result count: batched=%d reference=%d", len(bk), len(rk))
	}
	for i := range bk {
		if bk[i] != rk[i] {
			t.Fatalf("result multiset diverges at %d:\n  batched  %s\n  reference %s", i, bk[i], rk[i])
		}
	}
}
