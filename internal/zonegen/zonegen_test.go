package zonegen

import (
	"fmt"
	"net/netip"
	"testing"

	"ldplayer/internal/dnsmsg"
	"ldplayer/internal/zone"
)

func TestGenerateStructure(t *testing.T) {
	h, err := Generate(Config{TLDs: []string{"com", "org"}, SLDsPerTLD: 3, HostsPerSLD: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	// 1 root + 2 TLDs + 6 SLDs.
	if len(h.Zones) != 9 {
		t.Fatalf("zones=%d", len(h.Zones))
	}
	if len(h.SLDs) != 6 {
		t.Fatalf("SLDs=%d", len(h.SLDs))
	}
	// Every zone validates and has a nameserver address.
	for origin, z := range h.Zones {
		if err := z.Validate(); err != nil {
			t.Errorf("%s: %v", origin, err)
		}
		if _, ok := h.NSAddr[origin]; !ok {
			t.Errorf("%s: no NS address", origin)
		}
		if _, ok := h.NSName[origin]; !ok {
			t.Errorf("%s: no NS name", origin)
		}
	}
	// Root delegates each TLD with glue.
	for _, tld := range []dnsmsg.Name{"com.", "org."} {
		a := h.Root.Query("x.y."+tld, dnsmsg.TypeA, false)
		if a.Result != zone.ResultReferral {
			t.Errorf("root does not delegate %s: %v", tld, a.Result)
		}
		if len(a.Additional) == 0 {
			t.Errorf("referral for %s lacks glue", tld)
		}
	}
	// TLD zones delegate their SLDs.
	for _, sld := range h.SLDs {
		tz := h.Zones[sld.Parent()]
		a := tz.Query("www."+sld, dnsmsg.TypeA, false)
		if a.Result != zone.ResultReferral {
			t.Errorf("%s does not delegate %s: %v", sld.Parent(), sld, a.Result)
		}
		// And the SLD zone answers.
		sz := h.Zones[sld]
		a = sz.Query("www."+sld, dnsmsg.TypeA, false)
		if a.Result != zone.ResultAnswer {
			t.Errorf("%s does not answer www: %v", sld, a.Result)
		}
	}
	// NS addresses are distinct (split-horizon views key on them).
	seen := map[string]dnsmsg.Name{}
	for origin, addr := range h.NSAddr {
		if prev, dup := seen[addr.String()]; dup {
			t.Errorf("address %s shared by %s and %s", addr, origin, prev)
		}
		seen[addr.String()] = origin
	}
}

// TestGenerateWideAddressPlan: past 255 SLDs per TLD, nameserver
// addresses stay distinct (split-horizon views key on them) and so do
// the SLDs' host addresses.
func TestGenerateWideAddressPlan(t *testing.T) {
	h, err := Generate(Config{TLDs: []string{"com", "org", "net"}, SLDsPerTLD: 600, HostsPerSLD: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	ns := map[netip.Addr]dnsmsg.Name{}
	for origin, addr := range h.NSAddr {
		if prev, dup := ns[addr]; dup {
			t.Fatalf("nameserver address %s shared by %s and %s", addr, prev, origin)
		}
		ns[addr] = origin
	}
	hosts := map[string]dnsmsg.Name{}
	for _, sld := range h.SLDs {
		for _, typ := range []dnsmsg.Type{dnsmsg.TypeA, dnsmsg.TypeAAAA} {
			set, ok := h.Zones[sld].Lookup("www."+sld, typ)
			if !ok {
				t.Fatalf("%s: no www %v", sld, typ)
			}
			a := set.RRs()[0].Data.String()
			if prev, dup := hosts[a]; dup {
				t.Fatalf("host address %s in both %s and %s", a, prev, sld)
			}
			hosts[a] = sld
		}
	}
}

// TestGenerateRejectsOversizedPlans: sizes the address plan cannot
// number distinctly are errors, not silently wrapped octets.
func TestGenerateRejectsOversizedPlans(t *testing.T) {
	many := make([]string, 256)
	for i := range many {
		many[i] = fmt.Sprintf("t%d", i)
	}
	for name, cfg := range map[string]Config{
		"256 TLDs":             {TLDs: many, SLDsPerTLD: 1, HostsPerSLD: 1},
		"157 hosts per SLD":    {TLDs: []string{"com"}, SLDsPerTLD: 1, HostsPerSLD: 157},
		"SLDs past 10.0.0.0/8": {TLDs: many[:200], SLDsPerTLD: 600, HostsPerSLD: 1},
	} {
		if _, err := Generate(cfg); err == nil {
			t.Errorf("%s: Generate accepted a plan whose addresses wrap", name)
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a, err := Generate(Config{TLDs: []string{"com"}, SLDsPerTLD: 2, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(Config{TLDs: []string{"com"}, SLDsPerTLD: 2, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if len(a.SLDs) != len(b.SLDs) {
		t.Fatal("different SLD counts")
	}
	for i := range a.SLDs {
		if a.SLDs[i] != b.SLDs[i] {
			t.Errorf("SLD %d: %s vs %s", i, a.SLDs[i], b.SLDs[i])
		}
	}
}

func TestGenerateSigned(t *testing.T) {
	h, err := Generate(Config{TLDs: []string{"com"}, SLDsPerTLD: 1, Seed: 3, Sign: true})
	if err != nil {
		t.Fatal(err)
	}
	// Every zone has DNSKEYs and a signer.
	for origin, z := range h.Zones {
		if _, ok := z.Lookup(origin, dnsmsg.TypeDNSKEY); !ok {
			t.Errorf("%s: no DNSKEY", origin)
		}
		if h.Signers[origin] == nil {
			t.Errorf("%s: no signer", origin)
		}
	}
	// Parents publish DS for their children: chain of trust.
	sld := h.SLDs[0]
	tld := sld.Parent()
	if _, ok := h.Zones[tld].Lookup(sld, dnsmsg.TypeDS); !ok {
		t.Errorf("no DS for %s in %s", sld, tld)
	}
	if _, ok := h.Root.Lookup(tld, dnsmsg.TypeDS); !ok {
		t.Errorf("no DS for %s in root", tld)
	}
	// Signed referral carries DS + RRSIG.
	a := h.Root.Query("www."+sld, dnsmsg.TypeA, true)
	var hasDS, hasSig bool
	for _, rr := range a.Authority {
		switch rr.Type {
		case dnsmsg.TypeDS:
			hasDS = true
		case dnsmsg.TypeRRSIG:
			hasSig = true
		}
	}
	if !hasDS || !hasSig {
		t.Errorf("signed referral: DS=%v RRSIG=%v", hasDS, hasSig)
	}
}

func TestWildcardZone(t *testing.T) {
	z := WildcardZone("example.com.")
	if err := z.Validate(); err != nil {
		t.Fatal(err)
	}
	a := z.Query("utterly-random-name-12345.example.com.", dnsmsg.TypeA, false)
	if a.Result != zone.ResultAnswer {
		t.Errorf("wildcard miss: %v", a.Result)
	}
	a = z.Query("www.example.com.", dnsmsg.TypeA, false)
	if a.Result != zone.ResultAnswer || a.Answer[0].Data.(dnsmsg.A).Addr.String() != "192.0.2.80" {
		t.Errorf("www answer: %+v", a.Answer)
	}
}

func TestRootZone(t *testing.T) {
	z := RootZone([]string{"com", "net"})
	if err := z.Validate(); err != nil {
		t.Fatal(err)
	}
	a := z.Query("www.google.com.", dnsmsg.TypeA, false)
	if a.Result != zone.ResultReferral {
		t.Errorf("result=%v", a.Result)
	}
	a = z.Query("junk12345.nonexistent-tld.", dnsmsg.TypeA, false)
	if a.Result != zone.ResultNXDomain {
		t.Errorf("junk result=%v", a.Result)
	}
	a = z.Query(".", dnsmsg.TypeNS, false)
	if a.Result != zone.ResultAnswer || len(a.Additional) == 0 {
		t.Errorf("priming query: %v, glue=%d", a.Result, len(a.Additional))
	}
}
