package hierarchy

import (
	"context"
	"net/netip"
	"testing"

	"ldplayer/internal/dnsmsg"
	"ldplayer/internal/resolver"
	"ldplayer/internal/transport"
	"ldplayer/internal/zonegen"
)

func genHierarchy(t testing.TB) *zonegen.Hierarchy {
	t.Helper()
	h, err := zonegen.Generate(zonegen.Config{
		TLDs: []string{"com", "org"}, SLDsPerTLD: 2, HostsPerSLD: 2, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	return h
}

func TestEmulatedWalkMatchesRealHierarchy(t *testing.T) {
	h := genHierarchy(t)
	var servers []netip.AddrPort
	em, err := New(h, Config{
		RecursiveAddr: netip.MustParseAddr("10.99.0.2"),
		MetaAddr:      netip.MustParseAddr("10.99.0.3"),
		RecProxyAddr:  netip.MustParseAddr("10.99.0.4"),
		AuthProxyAddr: netip.MustParseAddr("10.99.0.5"),
		EDNSSize:      4096,
		Tap: func(srv netip.AddrPort, q, resp *dnsmsg.Msg) {
			servers = append(servers, srv)
		},
	})
	if err != nil {
		t.Fatal(err)
	}

	sld := h.SLDs[0]
	target := dnsmsg.MustParseName("www." + string(sld))
	m, err := em.Resolve(context.Background(), target, dnsmsg.TypeA)
	if err != nil {
		t.Fatal(err)
	}
	if m.Rcode != dnsmsg.RcodeSuccess || len(m.Answer) == 0 {
		t.Fatalf("answer=%+v", m)
	}

	// The resolver must have walked three levels: root, TLD, SLD — each
	// at its own (emulated) server address, even though one server
	// process answered everything.
	if len(servers) != 3 {
		t.Fatalf("exchanges=%v want 3 (root, TLD, SLD)", servers)
	}
	tld := sld.Parent()
	want := []netip.Addr{h.NSAddr[dnsmsg.Root], h.NSAddr[tld], h.NSAddr[sld]}
	for i, srv := range servers {
		if srv.Addr() != want[i] {
			t.Errorf("hop %d: %v want %v", i, srv.Addr(), want[i])
		}
	}

	// Both proxies saw all three exchanges.
	if em.RecProxy.Rewritten() != 3 || em.AuthProxy.Rewritten() != 3 {
		t.Errorf("proxy counts: rec=%d auth=%d", em.RecProxy.Rewritten(), em.AuthProxy.Rewritten())
	}
	// Every query was diverted through a TUN rule twice (query + reply).
	_, diverted, dropped := em.Net.Counters()
	if diverted != 6 {
		t.Errorf("diverted=%d want 6", diverted)
	}
	if dropped != 0 {
		t.Errorf("dropped=%d", dropped)
	}
}

// TestDirectModeSkipsHierarchy reproduces the paper's motivating
// distortion: without proxies and split horizon, a single server hosting
// the whole hierarchy answers the first query with the final record,
// collapsing three round trips into one and invalidating any caching or
// timing measurement above the SLD.
func TestDirectModeSkipsHierarchy(t *testing.T) {
	h := genHierarchy(t)
	var servers []netip.AddrPort
	cfg := DefaultConfig()
	cfg.Tap = func(srv netip.AddrPort, q, resp *dnsmsg.Msg) { servers = append(servers, srv) }
	em, err := NewDirect(h, cfg)
	if err != nil {
		t.Fatal(err)
	}
	sld := h.SLDs[0]
	m, err := em.Resolve(context.Background(), dnsmsg.MustParseName("www."+string(sld)), dnsmsg.TypeA)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Answer) == 0 {
		t.Fatalf("no answer: %+v", m)
	}
	if len(servers) != 1 {
		t.Fatalf("exchanges=%d want 1 — direct mode should short-circuit", len(servers))
	}
}

func TestEmulatedNegativeAnswers(t *testing.T) {
	h := genHierarchy(t)
	em, err := New(h, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	// NXDOMAIN from the TLD level.
	m, err := em.Resolve(context.Background(), "no-such-domain.com.", dnsmsg.TypeA)
	if err != nil {
		t.Fatal(err)
	}
	if m.Rcode != dnsmsg.RcodeNXDomain {
		t.Errorf("rcode=%v want NXDOMAIN", m.Rcode)
	}
	// NXDOMAIN at the root for an unknown TLD.
	m, err = em.Resolve(context.Background(), "x.invalid-tld.", dnsmsg.TypeA)
	if err != nil {
		t.Fatal(err)
	}
	if m.Rcode != dnsmsg.RcodeNXDomain {
		t.Errorf("rcode=%v want NXDOMAIN", m.Rcode)
	}
}

func TestEmulatedCachingSecondQueryNoUpstream(t *testing.T) {
	h := genHierarchy(t)
	count := 0
	cfg := DefaultConfig()
	cfg.Tap = func(netip.AddrPort, *dnsmsg.Msg, *dnsmsg.Msg) { count++ }
	em, err := New(h, cfg)
	if err != nil {
		t.Fatal(err)
	}
	name := dnsmsg.MustParseName("www." + string(h.SLDs[1]))
	if _, err := em.Resolve(context.Background(), name, dnsmsg.TypeA); err != nil {
		t.Fatal(err)
	}
	first := count
	if _, err := em.Resolve(context.Background(), name, dnsmsg.TypeA); err != nil {
		t.Fatal(err)
	}
	if count != first {
		t.Errorf("cached re-resolution hit upstream (%d -> %d)", first, count)
	}
}

func TestSignedHierarchyServesDNSSEC(t *testing.T) {
	h, err := zonegen.Generate(zonegen.Config{
		TLDs: []string{"com"}, SLDsPerTLD: 1, HostsPerSLD: 1, Seed: 2,
		Sign: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.DO = true
	var sawRRSIG, sawDS bool
	cfg.Tap = func(_ netip.AddrPort, _ *dnsmsg.Msg, resp *dnsmsg.Msg) {
		for _, rr := range append(resp.Answer, resp.Authority...) {
			switch rr.Type {
			case dnsmsg.TypeRRSIG:
				sawRRSIG = true
			case dnsmsg.TypeDS:
				sawDS = true
			}
		}
	}
	em, err := New(h, cfg)
	if err != nil {
		t.Fatal(err)
	}
	name := dnsmsg.MustParseName("www." + string(h.SLDs[0]))
	m, err := em.Resolve(context.Background(), name, dnsmsg.TypeA)
	if err != nil {
		t.Fatal(err)
	}
	if m.Rcode != dnsmsg.RcodeSuccess {
		t.Fatalf("rcode=%v", m.Rcode)
	}
	if !sawRRSIG || !sawDS {
		t.Errorf("DNSSEC chain incomplete: rrsig=%v ds=%v", sawRRSIG, sawDS)
	}
	// DS lives on the parent side of the cut: with the SLD's delegation
	// cached, the question still goes to the TLD, which holds the DS.
	m, err = em.Resolve(context.Background(), h.SLDs[0], dnsmsg.TypeDS)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Answer) == 0 || m.Answer[0].Type != dnsmsg.TypeDS {
		t.Errorf("DS answer=%v", m.Answer)
	}
}

// The resolver's interface contract holds through the whole emulation.
var _ resolver.Exchanger = (*transport.Exchanger)(nil)
