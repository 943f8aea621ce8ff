package server

import (
	"fmt"
	"math"
	"net/netip"
	"runtime"
	"testing"

	"ldplayer/internal/dnsmsg"
)

// TestAllocBounds holds the serve path's allocation bounds. Each row
// names the benchmark that reports the same op under `go test -bench`
// and the most allocations per op, counted as testing.AllocsPerRun
// counts them (truncated to a whole number, as -benchmem prints them).
// The serve-pipeline rows measure one whole replay of serveQueries
// queries and divide by that count.
func TestAllocBounds(t *testing.T) {
	const serveQueries = 10000
	src := netip.MustParseAddr("10.0.0.1")
	out := make([]byte, 0, 512)
	handle := func(t *testing.T, s *Server, req *dnsmsg.Msg) {
		wire, err := s.HandleQueryWire(src, req, 512, out[:0])
		if err != nil {
			t.Fatal(err)
		}
		out = wire[:0]
	}

	hit := handleQueryServer(t, "")
	hitReq := query("www.example.com.", dnsmsg.TypeA)
	for range 3 { // warm past second-sighting admission
		handle(t, hit, hitReq)
	}
	// Every miss and nxdomain op asks a name no earlier op asked.
	wildcard, plain := handleQueryServer(t, "* IN A 192.0.2.200\n"), handleQueryServer(t, "")
	names := make([]dnsmsg.Name, 3000)
	for i := range names {
		names[i] = dnsmsg.Name(fmt.Sprintf("h%d.example.com.", i))
	}
	req := query("www.example.com.", dnsmsg.TypeA)
	i := 0
	fresh := func(t *testing.T, s *Server) {
		req.SetQuestion(names[i], dnsmsg.TypeA)
		i++
		handle(t, s, req)
	}
	views2011, addrs2011 := viewServer(2011)
	views20110, addrs20110 := viewServer(20110)
	viewFor := func(t *testing.T, s *Server, addrs []netip.Addr) {
		if s.viewFor(addrs[i%len(addrs)]) == nil {
			t.Fatal("no view")
		}
		i++
	}
	sharded, single := serveUDPRig(t, runtime.GOMAXPROCS(0)), serveUDPRig(t, 1)

	for _, r := range []struct {
		bench     string
		max       float64
		runs, ops int
		pooled    bool // the op takes scratch from a sync.Pool
		f         func(t *testing.T)
	}{
		{"BenchmarkServerHandleQuery/hit", 0, 1000, 1, false, func(t *testing.T) {
			hitReq.ID++
			handle(t, hit, hitReq)
		}},
		{"BenchmarkServerHandleQuery/miss", 1, 1000, 1, true, func(t *testing.T) { fresh(t, wildcard) }},
		{"BenchmarkServerHandleQuery/nxdomain", 1, 1000, 1, true, func(t *testing.T) { fresh(t, plain) }},
		{"BenchmarkViewFor/views=2011", 0, 1000, 1, false, func(t *testing.T) { viewFor(t, views2011, addrs2011) }},
		{"BenchmarkViewFor/views=20110", 0, 1000, 1, false, func(t *testing.T) { viewFor(t, views20110, addrs20110) }},
		{"BenchmarkServeUDPSharded", 0, 1, serveQueries, true, func(t *testing.T) { sharded(t, serveQueries) }},
		{"BenchmarkServeUDPSinglePipeline", 0, 1, serveQueries, true, func(t *testing.T) { single(t, serveQueries) }},
	} {
		t.Run(r.bench, func(t *testing.T) {
			if r.pooled && raceEnabled {
				t.Skip("the race detector drops sync.Pool puts at random")
			}
			got := math.Floor(testing.AllocsPerRun(r.runs, func() { r.f(t) }) / float64(r.ops))
			if got > r.max {
				t.Errorf("%.0f allocs/op, bound %.0f", got, r.max)
			} else {
				t.Logf("%.0f allocs/op, bound %.0f", got, r.max)
			}
		})
	}
}
