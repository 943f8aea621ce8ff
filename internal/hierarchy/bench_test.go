package hierarchy

import (
	"context"
	"net/netip"
	"testing"
	"time"

	"ldplayer/internal/dnsmsg"
	"ldplayer/internal/zonegen"
)

// benchEmulation is the emulation at the paper's size (10 TLDs × 200
// SLDs = 2011 zones, one split-horizon view each) with www under every
// SLD to resolve.
func benchEmulation(b *testing.B, cfg Config) (*Emulation, []dnsmsg.Name) {
	h, err := zonegen.Generate(zonegen.Config{SLDsPerTLD: 200, HostsPerSLD: 8, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	em, err := New(h, cfg)
	if err != nil {
		b.Fatal(err)
	}
	names := make([]dnsmsg.Name, len(h.SLDs))
	for i, sld := range h.SLDs {
		names[i] = dnsmsg.MustParseName("www." + string(sld))
	}
	return em, names
}

func benchResolve(b *testing.B, em *Emulation, name dnsmsg.Name) {
	m, err := em.Resolve(context.Background(), name, dnsmsg.TypeA)
	if err != nil || m.Rcode != dnsmsg.RcodeSuccess {
		b.Fatalf("%s: rcode=%v err=%v", name, m.Rcode, err)
	}
}

// BenchmarkResolveCold is one full resolution through the emulated
// hierarchy: resolver, both proxies, the vnet fabric and the
// meta-server. The resolver cache is flushed at the start of every pass
// over the SLDs, so each pass walks root → TLD → SLD for the first SLD
// of a TLD and TLD → SLD for the rest.
func BenchmarkResolveCold(b *testing.B) {
	em, names := benchEmulation(b, DefaultConfig())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j := i % len(names)
		if j == 0 {
			em.Resolver.Cache().Flush()
		}
		benchResolve(b, em, names[j])
	}
}

// BenchmarkResolveWarm is the same resolution with every delegation
// cached: before each pass the cache clock moves past the answers' 300 s
// TTL but stays inside the 172 800 s NS TTLs, so each resolution is the
// single SLD exchange (checked).
func BenchmarkResolveWarm(b *testing.B) {
	exchanges := 0
	cfg := DefaultConfig()
	cfg.Tap = func(netip.AddrPort, *dnsmsg.Msg, *dnsmsg.Msg) { exchanges++ }
	em, names := benchEmulation(b, cfg)
	now, warmed := time.Unix(1_000_000_000, 0), time.Time{}
	em.Resolver.Cache().SetClock(func() time.Time { return now })
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j := i % len(names)
		if j == 0 {
			if now.Sub(warmed) > 172_000*time.Second {
				b.StopTimer()
				timed := exchanges
				em.Resolver.Cache().Flush()
				for _, name := range names {
					benchResolve(b, em, name)
				}
				warmed, exchanges = now, timed
				b.StartTimer()
			}
			now = now.Add(301 * time.Second)
		}
		benchResolve(b, em, names[j])
	}
	b.StopTimer()
	if exchanges != b.N {
		b.Fatalf("%d exchanges for %d warm resolutions", exchanges, b.N)
	}
}
