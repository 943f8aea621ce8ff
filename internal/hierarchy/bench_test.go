package hierarchy

import (
	"context"
	"testing"

	"ldplayer/internal/dnsmsg"
	"ldplayer/internal/zonegen"
)

// BenchmarkResolveCold is one full resolution through the emulated
// hierarchy at the paper's size (10 TLDs × 200 SLDs = 2011 zones, one
// split-horizon view each): resolver, both proxies, the vnet fabric and
// the meta-server. The resolver cache is flushed at the start of every
// pass over the SLDs, so each pass walks root → TLD → SLD for the first
// SLD of a TLD and TLD → SLD for the rest.
func BenchmarkResolveCold(b *testing.B) {
	h, err := zonegen.Generate(zonegen.Config{SLDsPerTLD: 200, HostsPerSLD: 8, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	em, err := New(h, DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	names := make([]dnsmsg.Name, len(h.SLDs))
	for i, sld := range h.SLDs {
		names[i] = dnsmsg.MustParseName("www." + string(sld))
	}
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j := i % len(names)
		if j == 0 {
			em.Resolver.Cache().Flush()
		}
		m, err := em.Resolve(ctx, names[j], dnsmsg.TypeA)
		if err != nil || m.Rcode != dnsmsg.RcodeSuccess {
			b.Fatalf("%s: rcode=%v err=%v", names[j], m.Rcode, err)
		}
	}
}
