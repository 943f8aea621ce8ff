package hierarchy

import (
	"math"
	"net/netip"
	"testing"
	"time"

	"ldplayer/internal/dnsmsg"
)

// TestAllocBounds holds the emulated hierarchy's allocation bounds.
// Each row names the benchmark that reports the same op under `go test
// -bench` and the most allocations per op, counted as
// testing.AllocsPerRun counts them (truncated to a whole number, as
// -benchmem prints them). An op is one resolution; a row measures one
// pass over every SLD, as the benchmark's passes do, and divides by the
// pass's resolutions.
func TestAllocBounds(t *testing.T) {
	if raceEnabled {
		t.Skip("every exchange takes its messages from dnsmsg's sync.Pool")
	}
	cold, names := benchEmulation(t, DefaultConfig())
	coldPass := func(t *testing.T) {
		cold.Resolver.Cache().Flush()
		for _, name := range names {
			benchResolve(t, cold, name)
		}
	}
	// The first two cold passes grow state the later ones reuse;
	// AllocsPerRun's own warm-up call is the second.
	coldPass(t)

	// The warm pass runs with every delegation cached and the answers
	// expired: the clock moves 301 s past the warming pass, inside the
	// 172 800 s NS TTLs, so each resolution is one SLD exchange.
	exchanges := 0
	cfg := DefaultConfig()
	cfg.Tap = func(netip.AddrPort, *dnsmsg.Msg, *dnsmsg.Msg) { exchanges++ }
	warm, _ := benchEmulation(t, cfg)
	now := time.Unix(1_000_000_000, 0)
	warm.Resolver.Cache().SetClock(func() time.Time { return now })
	for _, name := range names {
		benchResolve(t, warm, name)
	}

	for _, r := range []struct {
		bench string
		max   float64
		f     func(t *testing.T)
	}{
		{"BenchmarkResolveCold", 62, coldPass},
		{"BenchmarkResolveWarm", 26, func(t *testing.T) {
			now = now.Add(301 * time.Second)
			exchanges = 0
			for _, name := range names {
				benchResolve(t, warm, name)
			}
			if exchanges != len(names) {
				t.Fatalf("%d exchanges for %d warm resolutions", exchanges, len(names))
			}
		}},
	} {
		t.Run(r.bench, func(t *testing.T) {
			got := testing.AllocsPerRun(1, func() { r.f(t) }) / float64(len(names))
			if got = math.Floor(got); got > r.max {
				t.Errorf("%.0f allocs/op, bound %.0f", got, r.max)
			} else {
				t.Logf("%.0f allocs/op, bound %.0f", got, r.max)
			}
		})
	}
}
