package replay

import (
	"cmp"
	"context"
	"math/rand"
	"net/netip"
	"slices"
	"sort"
	"testing"
	"time"
	"unsafe"

	"ldplayer/internal/dnsmsg"
	"ldplayer/internal/trace"
)

// TestQueryResultSize pins the packed layout: the report holds one
// QueryResult per query, so every byte here is a byte per query.
func TestQueryResultSize(t *testing.T) {
	if got := unsafe.Sizeof(QueryResult{}); got != 56 {
		t.Fatalf("unsafe.Sizeof(QueryResult{}) = %d, want 56", got)
	}
}

// oldAssembly is the report assembly mergeResults replaced: copy each
// log out flat, concatenate, sort.Slice on TraceOffset.
func oldAssembly(reports []*queryReport) []QueryResult {
	var all []QueryResult
	for _, r := range reports {
		l := &r.results
		if l.n == 0 {
			continue
		}
		left := l.n
		for _, c := range *l.dir.Load() {
			take := min(left, resultChunkLen)
			all = append(all, c[:take]...)
			left -= take
		}
	}
	sort.Slice(all, func(i, j int) bool { return all[i].TraceOffset < all[j].TraceOffset })
	return all
}

// queryEvents builds UDP queries for (time, source) pairs.
func queryEvents(tb testing.TB, times []time.Duration, srcs []netip.Addr) []*trace.Event {
	tb.Helper()
	var m dnsmsg.Msg
	m.SetQuestion(dnsmsg.MustParseName("www.example.com."), dnsmsg.TypeA)
	wire, err := m.Pack()
	if err != nil {
		tb.Fatal(err)
	}
	events := make([]*trace.Event, len(times))
	for i := range events {
		events[i] = &trace.Event{
			Time:  time.Unix(0, 0).Add(times[i]),
			Src:   netip.AddrPortFrom(srcs[i], 5000),
			Proto: trace.UDP,
			Wire:  wire,
		}
	}
	return events
}

func srcAddr(s int) netip.Addr { return netip.AddrFrom4([4]byte{10, 2, byte(s >> 8), byte(s)}) }

// TestResultsTiesKeepSendOrder: every source sends bursts of queries
// with one timestamp, all sources at the same instants, across four
// queriers. Results come back sorted by TraceOffset, and each source's
// results keep the order it sent them in — the property an unstable
// sort over the equal offsets breaks.
func TestResultsTiesKeepSendOrder(t *testing.T) {
	const sources, burst, rounds = 16, 8, 20
	var times []time.Duration
	var srcs []netip.Addr
	for r := range rounds {
		for s := range sources {
			for range burst {
				times = append(times, time.Duration(r)*500*time.Microsecond)
				srcs = append(srcs, srcAddr(s))
			}
		}
	}
	eng, err := New(Config{
		Server:                 fabricServer,
		Dialer:                 echoFabric{},
		Distributors:           2,
		QueriersPerDistributor: 2,
		BatchSize:              4,
	})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := eng.Run(context.Background(), &sliceReader{events: queryEvents(t, times, srcs)})
	if err != nil {
		t.Fatal(err)
	}
	if int(rep.Sent) != len(times) || len(rep.Results) != len(times) {
		t.Fatalf("sent=%d results=%d, want %d", rep.Sent, len(rep.Results), len(times))
	}
	lastSent := map[netip.Addr]time.Duration{}
	for i, r := range rep.Results {
		if i > 0 && r.TraceOffset < rep.Results[i-1].TraceOffset {
			t.Fatalf("result %d at %v follows one at %v", i, r.TraceOffset, rep.Results[i-1].TraceOffset)
		}
		if last, ok := lastSent[r.Src]; ok && r.SentOffset < last {
			t.Fatalf("source %v reordered: result %d sent at %v after one sent at %v", r.Src, i, r.SentOffset, last)
		}
		lastSent[r.Src] = r.SentOffset
	}
}

// TestAssemblyMatchesOld: over tie-free traces, one time-ordered and
// one not, the report equals, element for element, what the old
// copy-concatenate-sort assembly built from the same querier logs.
func TestAssemblyMatchesOld(t *testing.T) {
	const n, sources = 3000, 40
	ordered := make([]time.Duration, n)
	srcs := make([]netip.Addr, n)
	for i := range ordered {
		ordered[i] = time.Duration(i) * time.Microsecond
		srcs[i] = srcAddr(i % sources)
	}
	// Swapping neighbours keeps every time distinct but sends each pair
	// out of trace order, so the logs themselves are unsorted.
	swapped := slices.Clone(ordered)
	for i := 0; i+1 < n; i += 2 {
		swapped[i], swapped[i+1] = swapped[i+1], swapped[i]
	}
	for name, times := range map[string][]time.Duration{"ordered": ordered, "unordered": swapped} {
		t.Run(name, func(t *testing.T) {
			eng, err := New(Config{
				Server:                 fabricServer,
				Dialer:                 echoFabric{},
				Mode:                   FastAsPossible,
				Distributors:           2,
				QueriersPerDistributor: 2,
			})
			if err != nil {
				t.Fatal(err)
			}
			var want []QueryResult
			plane := func(ctx context.Context, cfg Config, st *stats, in trace.Reader) ([]*queryReport, error) {
				reports, err := runBatched(ctx, cfg, st, in)
				want = oldAssembly(reports)
				return reports, err
			}
			rep, err := eng.run(context.Background(), &sliceReader{events: queryEvents(t, times, srcs)}, plane)
			if err != nil {
				t.Fatal(err)
			}
			if len(rep.Results) != n || len(want) != n {
				t.Fatalf("results=%d old=%d, want %d", len(rep.Results), len(want), n)
			}
			for i := range want {
				if rep.Results[i] != want[i] {
					t.Fatalf("result %d = %+v, old assembly %+v", i, rep.Results[i], want[i])
				}
			}
		})
	}
}

// fillLog is a querier report whose log holds one result per offset,
// in order.
func fillLog(offsets []time.Duration, src netip.Addr) *queryReport {
	r := new(queryReport)
	for i, off := range offsets {
		_, slot := r.results.reserve()
		*slot = QueryResult{TraceOffset: off, SentOffset: time.Duration(i), RTT: -1, Src: src}
	}
	return r
}

// TestMergeResults drives the merge directly: more logs than its stack
// cursors cover, lengths on and around chunk boundaries, empty logs,
// and ties inside and across logs. From logs in TraceOffset order the
// result is the stable sort of the logs concatenated in order. With one
// log out of order it is still sorted, still every result once, and
// each log's equal offsets still come out in that log's order.
func TestMergeResults(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	lens := []int{0, 1, resultChunkLen - 1, resultChunkLen, resultChunkLen + 1, 2*resultChunkLen + 7, 0, 50}
	byOffset := func(a, b QueryResult) int { return cmp.Compare(a.TraceOffset, b.TraceOffset) }
	for _, unsorted := range []bool{false, true} {
		var logs []*queryReport
		var concat []QueryResult
		for i := range 20 {
			offs := make([]time.Duration, lens[i%len(lens)])
			for j := range offs {
				offs[j] = time.Duration(rng.Intn(2000)) // dense: many ties
			}
			slices.Sort(offs)
			if unsorted && i == 5 {
				slices.Reverse(offs)
			}
			l := fillLog(offs, srcAddr(i))
			logs = append(logs, l)
			for j := range l.results.n {
				concat = append(concat, *l.results.at(j))
			}
		}
		got := mergeResults(logs)
		if len(got) != len(concat) || cap(got) != len(concat) {
			t.Fatalf("unsorted=%v: len=%d cap=%d, want %d", unsorted, len(got), cap(got), len(concat))
		}
		if !unsorted {
			want := slices.Clone(concat)
			slices.SortStableFunc(want, byOffset)
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("result %d = %+v, want %+v", i, got[i], want[i])
				}
			}
			continue
		}
		if !slices.IsSortedFunc(got, byOffset) {
			t.Fatal("unsorted log: results not sorted by TraceOffset")
		}
		// fillLog numbers each log's slots through SentOffset.
		for i := 1; i < len(got); i++ {
			a, b := got[i-1], got[i]
			if a.Src == b.Src && a.TraceOffset == b.TraceOffset && a.SentOffset > b.SentOffset {
				t.Fatalf("unsorted log: results %d, %d of %v out of log order", i-1, i, a.Src)
			}
		}
		bySlot := func(a, b QueryResult) int {
			return cmp.Or(a.Src.Compare(b.Src), cmp.Compare(a.SentOffset, b.SentOffset))
		}
		slices.SortFunc(got, bySlot)
		slices.SortFunc(concat, bySlot)
		if !slices.Equal(got, concat) {
			t.Fatal("unsorted log: results are not the logs' results")
		}
	}
	if got := mergeResults([]*queryReport{new(queryReport), new(queryReport)}); got != nil {
		t.Fatalf("empty logs merged to %d results, want nil", len(got))
	}
}
