package hierarchy

import (
	"bytes"
	"context"
	"fmt"
	"net/netip"
	"testing"

	"ldplayer/internal/dnsmsg"
	"ldplayer/internal/server"
	"ldplayer/internal/vnet"
	"ldplayer/internal/zonegen"
)

// serveMetaReference is the meta-server handler serveMeta replaced —
// reference decode, allocating HandleQuery, Pack — kept as its oracle.
func serveMetaReference(n *vnet.Network, meta *server.Server) vnet.Handler {
	return func(pkt vnet.Packet) {
		var req dnsmsg.Msg
		if err := req.Unpack(pkt.Payload); err != nil {
			return
		}
		wire, err := meta.HandleQuery(pkt.Src.Addr(), &req, 0).Pack()
		if err != nil {
			return
		}
		n.Send(vnet.Packet{Src: pkt.Dst, Dst: pkt.Src, Payload: wire}) // the capture rule takes every packet
	}
}

// metaCorpus is one upstream query per case the meta-server answers:
// root and TLD referrals, SLD answers, NXDOMAIN at every level, NODATA,
// and an address no view claims, each without EDNS, with EDNS and with
// DO, under varying IDs and RD bits.
func metaCorpus(h *zonegen.Hierarchy) (srcs []netip.Addr, qs []*dnsmsg.Msg) {
	add := func(src netip.Addr, name dnsmsg.Name, t dnsmsg.Type) {
		for variant := 0; variant < 3; variant++ {
			q := &dnsmsg.Msg{ID: uint16(len(qs)*7 + 1), RecursionDesired: len(qs)%2 == 0}
			q.SetQuestion(name, t)
			switch variant {
			case 1:
				q.SetEDNS(1232, false)
			case 2:
				q.SetEDNS(4096, true)
			}
			srcs = append(srcs, src)
			qs = append(qs, q)
		}
	}
	root := h.NSAddr[dnsmsg.Root]
	add(root, "x.invalid-tld.", dnsmsg.TypeA)
	add(root, dnsmsg.Root, dnsmsg.TypeNS)
	for _, sld := range h.SLDs {
		tld := sld.Parent()
		www := dnsmsg.MustParseName("www." + string(sld))
		add(root, www, dnsmsg.TypeA)
		add(h.NSAddr[tld], www, dnsmsg.TypeA)
		add(h.NSAddr[tld], dnsmsg.MustParseName("no-such-sld."+string(tld)), dnsmsg.TypeA)
		add(h.NSAddr[sld], www, dnsmsg.TypeA)
		add(h.NSAddr[sld], www, dnsmsg.TypeAAAA)
		add(h.NSAddr[sld], dnsmsg.MustParseName("api."+string(sld)), dnsmsg.TypeAAAA) // NODATA: odd hosts carry no AAAA
		add(h.NSAddr[sld], dnsmsg.MustParseName("nx."+string(sld)), dnsmsg.TypeA)
		add(h.NSAddr[sld], sld, dnsmsg.TypeMX)
	}
	add(netip.MustParseAddr("203.0.113.1"), "www.example.", dnsmsg.TypeA)
	return srcs, qs
}

// TestServeMetaMatchesReference: the pooled meta handler puts exactly
// the oracle's bytes on the fabric, on cache misses and on the repeat
// passes the answer cache serves, over unsigned and signed hierarchies.
func TestServeMetaMatchesReference(t *testing.T) {
	for _, sign := range []bool{false, true} {
		t.Run(fmt.Sprintf("signed=%v", sign), func(t *testing.T) {
			h, err := zonegen.Generate(zonegen.Config{
				TLDs: []string{"com", "org"}, SLDsPerTLD: 2, HostsPerSLD: 2, Seed: 11, Sign: sign,
			})
			if err != nil {
				t.Fatal(err)
			}
			em, err := New(h, DefaultConfig())
			if err != nil {
				t.Fatal(err)
			}
			n := vnet.New()
			capture := netip.MustParseAddr("10.250.0.1")
			var got []byte
			n.AddRule(vnet.Rule{Name: "capture", Match: func(vnet.Packet) bool { return true }, To: capture})
			n.Attach(capture, func(pkt vnet.Packet) { got = pkt.Payload })
			pooled, oracle := serveMeta(n, em.Meta), serveMetaReference(n, em.Meta)
			ask := func(handle vnet.Handler, src netip.Addr, q *dnsmsg.Msg) []byte {
				wire, err := q.Pack()
				if err != nil {
					t.Fatal(err)
				}
				got = nil
				handle(vnet.Packet{
					Src:     netip.AddrPortFrom(src, 40000),
					Dst:     netip.AddrPortFrom(DefaultConfig().MetaAddr, 53),
					Payload: wire,
				})
				return got
			}

			srcs, qs := metaCorpus(h)
			var sawDS, sawNX, sawRefused bool
			// Admission is on second sighting, so the third pass is the
			// first the answer cache serves.
			for pass := 0; pass < 3; pass++ {
				for i, q := range qs {
					want := ask(oracle, srcs[i], q)
					have := ask(pooled, srcs[i], q)
					if want == nil || !bytes.Equal(have, want) {
						t.Fatalf("pass %d, %s %v from %v: pooled reply differs from reference\n have %x\n want %x",
							pass, q.Question[0].Name, q.Question[0].Type, srcs[i], have, want)
					}
					var m dnsmsg.Msg
					if err := m.Unpack(want); err != nil {
						t.Fatal(err)
					}
					sawNX = sawNX || m.Rcode == dnsmsg.RcodeNXDomain
					sawRefused = sawRefused || m.Rcode == dnsmsg.RcodeRefused
					for _, rr := range m.Authority {
						sawDS = sawDS || rr.Type == dnsmsg.TypeDS
					}
				}
			}
			if st := em.Meta.Stats(); st.CacheHits == 0 {
				t.Fatalf("no answer-cache hits after three passes: %+v", st)
			}
			if !sawNX || !sawRefused || sign && !sawDS {
				t.Fatalf("corpus coverage: nxdomain=%v refused=%v ds=%v", sawNX, sawRefused, sawDS)
			}
		})
	}
}

// TestNewRejectsSharedNSAddr: two zones on one nameserver address would
// leave one of them unreachable, so the emulation refuses to build.
func TestNewRejectsSharedNSAddr(t *testing.T) {
	h := genHierarchy(t)
	h.NSAddr[h.SLDs[1]] = h.NSAddr[h.SLDs[0]]
	if _, err := New(h, DefaultConfig()); err == nil {
		t.Fatal("New accepted two zones sharing a nameserver address")
	}
}

// TestWideHierarchyResolves: past 255 SLDs per TLD every SLD still has
// its own view, so each resolves to its own records.
func TestWideHierarchyResolves(t *testing.T) {
	h, err := zonegen.Generate(zonegen.Config{TLDs: []string{"com"}, SLDsPerTLD: 300, HostsPerSLD: 1, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	em, err := New(h, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, i := range []int{0, 43, 44, 254, 255, 299} {
		sld := h.SLDs[i]
		m, err := em.Resolve(context.Background(), dnsmsg.MustParseName("www."+string(sld)), dnsmsg.TypeA)
		if err != nil {
			t.Fatal(err)
		}
		want, _ := h.Zones[sld].Lookup(dnsmsg.MustParseName("www."+string(sld)), dnsmsg.TypeA)
		if m.Rcode != dnsmsg.RcodeSuccess || len(m.Answer) != 1 || want == nil ||
			m.Answer[0].Data.String() != want.RRs()[0].Data.String() {
			t.Fatalf("SLD %d (%s): rcode=%v answer=%v", i, sld, m.Rcode, m.Answer)
		}
	}
}
