// Package zonegen synthesizes DNS hierarchies: a root zone delegating to
// TLD zones delegating to SLD zones, with deterministic nameserver
// addressing and optional DNSSEC signing at each level. It stands in for
// the paper's one-time Internet fetch (§2.3): where the authors harvested
// real zone data once, we synthesize equivalent data once, and everything
// downstream (zone construction, hierarchy emulation, replay) treats it
// identically.
package zonegen

import (
	"fmt"
	"math/rand"
	"net/netip"

	"ldplayer/internal/dnsmsg"
	"ldplayer/internal/dnssec"
	"ldplayer/internal/zone"
)

// Config controls hierarchy synthesis.
type Config struct {
	// TLDs to create; default is a realistic mix.
	TLDs []string
	// SLDsPerTLD is how many second-level domains each TLD delegates.
	SLDsPerTLD int
	// HostsPerSLD is how many leaf hosts each SLD zone carries.
	HostsPerSLD int
	// Wildcard adds a wildcard A record to each SLD zone (the paper's
	// throughput and synthetic-trace setups use wildcard zones so any
	// unique query name gets an answer).
	Wildcard bool
	// Sign DNSSEC-signs every zone and publishes DS records upward.
	Sign bool
	// SignCfg controls key sizes/rollover when Sign is set.
	SignCfg dnssec.SignConfig
	// Seed drives all randomness; the same seed gives the same hierarchy.
	Seed int64
}

// DefaultTLDs is a plausible TLD mix for synthetic traffic.
var DefaultTLDs = []string{"com", "net", "org", "edu", "gov", "io", "de", "uk", "jp", "cn"}

// Hierarchy is a synthesized DNS tree plus its addressing plan.
type Hierarchy struct {
	Root *zone.Zone
	// Zones maps every origin (including the root: ".") to its zone.
	Zones map[dnsmsg.Name]*zone.Zone
	// NSAddr maps each zone origin to the address of its authoritative
	// nameserver — the "public IPs" split-horizon views match on.
	NSAddr map[dnsmsg.Name]netip.Addr
	// NSName maps each zone origin to its nameserver's host name.
	NSName map[dnsmsg.Name]dnsmsg.Name
	// Signers holds the keys for each signed zone.
	Signers map[dnsmsg.Name]*dnssec.Signer
	// SLDs lists all second-level domains, for workload generation.
	SLDs []dnsmsg.Name
}

// RootAddr is the synthetic root server's address ("a.root-servers.net").
var RootAddr = netip.MustParseAddr("198.41.0.4")

// Generate builds the hierarchy.
func Generate(cfg Config) (*Hierarchy, error) {
	if len(cfg.TLDs) == 0 {
		cfg.TLDs = DefaultTLDs
	}
	if cfg.SLDsPerTLD <= 0 {
		cfg.SLDsPerTLD = 5
	}
	if cfg.HostsPerSLD <= 0 {
		cfg.HostsPerSLD = 4
	}
	ntld := len(cfg.TLDs)
	if _, ok := sldNet(ntld-1, cfg.SLDsPerTLD-1, ntld, cfg.SLDsPerTLD); !ok || cfg.HostsPerSLD > maxHostsPerSLD {
		return nil, fmt.Errorf("zonegen: %d TLDs × %d SLDs × %d hosts exceed the address plan (at most 255 TLDs, %d hosts per SLD, one 10.0.0.0/8 /24 per SLD)",
			ntld, cfg.SLDsPerTLD, cfg.HostsPerSLD, maxHostsPerSLD)
	}
	rng := rand.New(rand.NewSource(cfg.Seed))

	h := &Hierarchy{
		Zones:   make(map[dnsmsg.Name]*zone.Zone),
		NSAddr:  make(map[dnsmsg.Name]netip.Addr),
		NSName:  make(map[dnsmsg.Name]dnsmsg.Name),
		Signers: make(map[dnsmsg.Name]*dnssec.Signer),
	}

	root := zone.New(dnsmsg.Root)
	h.Root = root
	h.Zones[dnsmsg.Root] = root
	h.NSAddr[dnsmsg.Root] = RootAddr
	h.NSName[dnsmsg.Root] = "a.root-servers.net."
	mustAdd(root, rr(dnsmsg.Root, dnsmsg.TypeSOA, 86400, dnsmsg.SOA{
		MName: "a.root-servers.net.", RName: "nstld.verisign-grs.com.",
		Serial: 2016040600, Refresh: 1800, Retry: 900, Expire: 604800, Minimum: 86400,
	}))
	mustAdd(root, rr(dnsmsg.Root, dnsmsg.TypeNS, 518400, dnsmsg.NS{Host: "a.root-servers.net."}))
	mustAdd(root, rr("a.root-servers.net.", dnsmsg.TypeA, 518400, dnsmsg.A{Addr: RootAddr}))

	// Address plan: TLD servers in 192.100.x, one 10.x /24 per SLD (see
	// sldNet) — purely conventional, the testbed routes by table not by
	// prefix semantics. Every nameserver address is distinct: the
	// split-horizon views key on them.
	for ti, tld := range cfg.TLDs {
		tldName := dnsmsg.MustParseName(tld + ".")
		nsHost := dnsmsg.MustParseName(fmt.Sprintf("a.nic.%s.", tld))
		nsAddr := netip.AddrFrom4([4]byte{192, 100, byte(ti + 1), 53})

		mustAdd(root, rr(tldName, dnsmsg.TypeNS, 172800, dnsmsg.NS{Host: nsHost}))
		mustAdd(root, rr(nsHost, dnsmsg.TypeA, 172800, dnsmsg.A{Addr: nsAddr}))

		tz := zone.New(tldName)
		h.Zones[tldName] = tz
		h.NSAddr[tldName] = nsAddr
		h.NSName[tldName] = nsHost
		mustAdd(tz, rr(tldName, dnsmsg.TypeSOA, 86400, dnsmsg.SOA{
			MName: nsHost, RName: dnsmsg.MustParseName("hostmaster." + tld + "."),
			Serial: 1, Refresh: 1800, Retry: 900, Expire: 604800, Minimum: 86400,
		}))
		mustAdd(tz, rr(tldName, dnsmsg.TypeNS, 172800, dnsmsg.NS{Host: nsHost}))
		mustAdd(tz, rr(nsHost, dnsmsg.TypeA, 172800, dnsmsg.A{Addr: nsAddr}))

		for si := 0; si < cfg.SLDsPerTLD; si++ {
			sld := dnsmsg.MustParseName(fmt.Sprintf("%s%d.%s.", sldWord(rng), si, tld))
			h.SLDs = append(h.SLDs, sld)
			sldNS := dnsmsg.MustParseName("ns1." + string(sld))
			sn, _ := sldNet(ti, si, ntld, cfg.SLDsPerTLD) // the last SLD's fits, checked above
			sldAddr := sn.host(53)

			mustAdd(tz, rr(sld, dnsmsg.TypeNS, 172800, dnsmsg.NS{Host: sldNS}))
			mustAdd(tz, rr(sldNS, dnsmsg.TypeA, 172800, dnsmsg.A{Addr: sldAddr}))

			sz := zone.New(sld)
			h.Zones[sld] = sz
			h.NSAddr[sld] = sldAddr
			h.NSName[sld] = sldNS
			mustAdd(sz, rr(sld, dnsmsg.TypeSOA, 3600, dnsmsg.SOA{
				MName: sldNS, RName: dnsmsg.MustParseName("admin." + string(sld)),
				Serial: 1, Refresh: 7200, Retry: 3600, Expire: 1209600, Minimum: 300,
			}))
			mustAdd(sz, rr(sld, dnsmsg.TypeNS, 3600, dnsmsg.NS{Host: sldNS}))
			mustAdd(sz, rr(sldNS, dnsmsg.TypeA, 3600, dnsmsg.A{Addr: sldAddr}))
			for hi := 0; hi < cfg.HostsPerSLD; hi++ {
				host := dnsmsg.MustParseName(fmt.Sprintf("%s.%s", hostWord(hi), sld))
				mustAdd(sz, rr(host, dnsmsg.TypeA, 300, dnsmsg.A{Addr: sn.host(byte(100 + hi))}))
				if hi%2 == 0 {
					mustAdd(sz, rr(host, dnsmsg.TypeAAAA, 300, dnsmsg.AAAA{
						Addr: v6(ti, si, hi),
					}))
				}
			}
			mustAdd(sz, rr(sld, dnsmsg.TypeMX, 3600, dnsmsg.MX{Preference: 10,
				Host: dnsmsg.MustParseName("mail." + string(sld))}))
			mustAdd(sz, rr(dnsmsg.MustParseName("mail."+string(sld)), dnsmsg.TypeA, 300,
				dnsmsg.A{Addr: sn.host(25)}))
			if cfg.Wildcard {
				mustAdd(sz, rr(dnsmsg.Name("*."+string(sld)), dnsmsg.TypeA, 300,
					dnsmsg.A{Addr: sn.host(99)}))
			}
		}
	}

	if cfg.Sign {
		if err := signHierarchy(h, cfg); err != nil {
			return nil, err
		}
	}
	return h, nil
}

// maxHostsPerSLD keeps host addresses (.100 upward in the SLD's /24)
// inside the octet.
const maxHostsPerSLD = 156

// net24 is the first three octets of an IPv4 /24.
type net24 [3]byte

func (n net24) host(b byte) netip.Addr { return netip.AddrFrom4([4]byte{n[0], n[1], n[2], b}) }

// sldNet is the /24 of SLD si under TLD ti (of ntld, perTLD SLDs each),
// and whether the plan has one. The first 255 SLDs of a TLD sit at
// 10.(ti+1).(si+1); the rest follow, in generation order, in the second
// octets after the last TLD's.
func sldNet(ti, si, ntld, perTLD int) (net24, bool) {
	if si < 255 {
		return net24{10, byte(ti + 1), byte(si + 1)}, ti < 255
	}
	k := ti*(perTLD-255) + si - 255
	second := ntld + 1 + k/255
	return net24{10, byte(second), byte(k%255 + 1)}, second <= 255
}

// signHierarchy signs leaf zones first so DS records can be published in
// parents before the parents are themselves signed.
func signHierarchy(h *Hierarchy, cfg Config) error {
	// Order: SLDs, then TLDs, then root.
	var order []dnsmsg.Name
	order = append(order, h.SLDs...)
	for origin := range h.Zones {
		if origin != dnsmsg.Root && origin.LabelCount() == 1 {
			order = append(order, origin)
		}
	}
	order = append(order, dnsmsg.Root)

	seed := cfg.SignCfg.Seed
	if seed == 0 {
		seed = cfg.Seed + 1
	}
	for i, origin := range order {
		sc := cfg.SignCfg
		sc.Seed = seed + int64(i)
		signer, err := dnssec.NewSigner(sc)
		if err != nil {
			return err
		}
		h.Signers[origin] = signer
		// Publish DS in the parent before signing it (parents come later
		// in the order except when the parent is an earlier SLD, which
		// cannot happen in this two-level tree).
		if origin != dnsmsg.Root {
			parent := parentZoneOf(h, origin)
			if parent != nil {
				for _, ds := range signer.DSForZone(origin, 86400) {
					if err := parent.Add(ds); err != nil {
						return err
					}
				}
			}
		}
		if err := dnssec.SignZone(h.Zones[origin], signer, sc); err != nil {
			return err
		}
	}
	return nil
}

func parentZoneOf(h *Hierarchy, origin dnsmsg.Name) *zone.Zone {
	for p := origin.Parent(); ; p = p.Parent() {
		if z, ok := h.Zones[p]; ok {
			return z
		}
		if p.IsRoot() {
			return nil
		}
	}
}

func rr(name dnsmsg.Name, t dnsmsg.Type, ttl uint32, d dnsmsg.RData) dnsmsg.RR {
	return dnsmsg.RR{Name: name, Type: t, Class: dnsmsg.ClassINET, TTL: ttl, Data: d}
}

func mustAdd(z *zone.Zone, r dnsmsg.RR) {
	if err := z.Add(r); err != nil {
		panic(err)
	}
}

var sldWords = []string{"acme", "globex", "initech", "umbrella", "wayne",
	"stark", "tyrell", "cyberdyne", "hooli", "aperture", "wonka", "oscorp"}

func sldWord(rng *rand.Rand) string { return sldWords[rng.Intn(len(sldWords))] }

var hostWords = []string{"www", "api", "cdn", "db", "mx1", "ns2", "dev", "shop"}

func hostWord(i int) string { return hostWords[i%len(hostWords)] }

func v6(ti, si, hi int) netip.Addr {
	var b [16]byte
	b[0], b[1] = 0x20, 0x01
	b[2], b[3] = 0x0d, 0xb8
	b[12], b[13], b[14], b[15] = byte(si>>8), byte(ti), byte(si), byte(hi)
	return netip.AddrFrom16(b)
}

// WildcardZone builds the single example.com-with-wildcards zone the
// paper's synthetic and throughput replays answer from (§4.1, §4.3).
func WildcardZone(origin dnsmsg.Name) *zone.Zone {
	z := zone.New(origin)
	ns := dnsmsg.MustParseName("ns1." + string(origin))
	mustAdd(z, rr(origin, dnsmsg.TypeSOA, 3600, dnsmsg.SOA{
		MName: ns, RName: dnsmsg.MustParseName("admin." + string(origin)),
		Serial: 1, Refresh: 7200, Retry: 3600, Expire: 1209600, Minimum: 300,
	}))
	mustAdd(z, rr(origin, dnsmsg.TypeNS, 3600, dnsmsg.NS{Host: ns}))
	mustAdd(z, rr(ns, dnsmsg.TypeA, 3600, dnsmsg.A{Addr: netip.MustParseAddr("192.0.2.53")}))
	mustAdd(z, rr(dnsmsg.Name("*."+string(origin)), dnsmsg.TypeA, 300,
		dnsmsg.A{Addr: netip.MustParseAddr("192.0.2.99")}))
	mustAdd(z, rr(dnsmsg.Name("www."+string(origin)), dnsmsg.TypeA, 300,
		dnsmsg.A{Addr: netip.MustParseAddr("192.0.2.80")}))
	return z
}

// RootZone builds a stand-alone root zone with the given TLD list, used
// when replaying root-server traces against a single authoritative (the
// B-Root experiments): every TLD referral the trace can elicit exists.
func RootZone(tlds []string) *zone.Zone {
	if len(tlds) == 0 {
		tlds = DefaultTLDs
	}
	z := zone.New(dnsmsg.Root)
	mustAdd(z, rr(dnsmsg.Root, dnsmsg.TypeSOA, 86400, dnsmsg.SOA{
		MName: "a.root-servers.net.", RName: "nstld.verisign-grs.com.",
		Serial: 2016040600, Refresh: 1800, Retry: 900, Expire: 604800, Minimum: 86400,
	}))
	mustAdd(z, rr(dnsmsg.Root, dnsmsg.TypeNS, 518400, dnsmsg.NS{Host: "a.root-servers.net."}))
	mustAdd(z, rr("a.root-servers.net.", dnsmsg.TypeA, 518400, dnsmsg.A{Addr: RootAddr}))
	for i, tld := range tlds {
		name := dnsmsg.MustParseName(tld + ".")
		ns := dnsmsg.MustParseName("a.nic." + tld + ".")
		mustAdd(z, rr(name, dnsmsg.TypeNS, 172800, dnsmsg.NS{Host: ns}))
		mustAdd(z, rr(ns, dnsmsg.TypeA, 172800,
			dnsmsg.A{Addr: netip.AddrFrom4([4]byte{192, 100, byte(i + 1), 53})}))
	}
	return z
}
