// Package hierarchy assembles LDplayer's hierarchy emulation: a single
// meta-DNS-server hosting every zone behind split-horizon views, the two
// address-rewriting proxies, the TUN-style redirect rules, and a
// recursive resolver whose upstream traffic flows through all of it
// (paper §2.4, Fig 2). A resolver walking root → TLD → SLD here performs
// the same number of round trips, receives the same referrals, and
// caches the same records as it would against independent servers.
package hierarchy

import (
	"context"
	"fmt"
	"maps"
	"net/netip"
	"slices"

	"ldplayer/internal/cache"
	"ldplayer/internal/dnsmsg"
	"ldplayer/internal/proxy"
	"ldplayer/internal/resolver"
	"ldplayer/internal/server"
	"ldplayer/internal/transport"
	"ldplayer/internal/vnet"
	"ldplayer/internal/zonegen"
)

// Config carries the emulation's address plan and resolver knobs.
type Config struct {
	RecursiveAddr netip.Addr
	MetaAddr      netip.Addr
	RecProxyAddr  netip.Addr
	AuthProxyAddr netip.Addr
	EDNSSize      uint16
	DO            bool
	Tap           resolver.Tap
	Cache         *cache.Cache
}

// DefaultConfig returns the standard testbed address plan.
func DefaultConfig() Config {
	return Config{
		RecursiveAddr: netip.MustParseAddr("10.99.0.2"),
		MetaAddr:      netip.MustParseAddr("10.99.0.3"),
		RecProxyAddr:  netip.MustParseAddr("10.99.0.4"),
		AuthProxyAddr: netip.MustParseAddr("10.99.0.5"),
		EDNSSize:      4096,
	}
}

// Emulation is a running hierarchy emulation.
type Emulation struct {
	Net       *vnet.Network
	Meta      *server.Server
	Resolver  *resolver.Resolver
	RecProxy  *proxy.Recursive
	AuthProxy *proxy.Authoritative
	cfg       Config
	host      *transport.VNetHost
}

// New wires the full proxy + split-horizon emulation for a hierarchy.
func New(h *zonegen.Hierarchy, cfg Config) (*Emulation, error) {
	if !cfg.RecursiveAddr.IsValid() {
		cfg = DefaultConfig()
	}
	net := vnet.New()

	// Meta-DNS-server: one view per zone, keyed by the zone's nameserver
	// public address — after proxy rewriting, the query source address IS
	// the original query destination (OQDA), so matching on it selects
	// the hierarchy level the query was aimed at.
	// Views register in origin order, so which zone owns an address never
	// depends on map iteration; two zones on one address is an error, as
	// the second could never be reached.
	meta := server.New(server.Config{})
	owner := make(map[netip.Addr]dnsmsg.Name, len(h.Zones))
	for _, origin := range slices.Sorted(maps.Keys(h.Zones)) {
		addr := h.NSAddr[origin]
		if prev, dup := owner[addr]; dup {
			return nil, fmt.Errorf("hierarchy: zones %s and %s share nameserver address %s", prev, origin, addr)
		}
		owner[addr] = origin
		v := server.NewView(string(origin), []netip.Addr{addr}, nil)
		if err := v.Zones.Add(h.Zones[origin]); err != nil {
			return nil, err
		}
		meta.AddView(v)
	}

	em := &Emulation{Net: net, Meta: meta, cfg: cfg}

	// Proxies.
	em.RecProxy = &proxy.Recursive{Net: net, Meta: cfg.MetaAddr}
	em.AuthProxy = &proxy.Authoritative{Net: net, Recursive: cfg.RecursiveAddr}
	net.Attach(cfg.RecProxyAddr, em.RecProxy.Handle)
	net.Attach(cfg.AuthProxyAddr, em.AuthProxy.Handle)

	// TUN-style port routing (Fig 2): queries leaving the recursive are
	// captured by the recursive proxy; replies leaving the meta server
	// are captured by the authoritative proxy.
	net.AddRule(vnet.Rule{
		Name:  "recursive-queries-to-proxy",
		Match: vnet.FromHost(cfg.RecursiveAddr, vnet.DstPort53),
		To:    cfg.RecProxyAddr,
	})
	net.AddRule(vnet.Rule{
		Name:  "meta-replies-to-proxy",
		Match: vnet.FromHost(cfg.MetaAddr, vnet.SrcPort53),
		To:    cfg.AuthProxyAddr,
	})

	// Meta server endpoint: answer each query and emit the reply with the
	// meta server's own source address — the authoritative proxy fixes it
	// up, exactly as in the paper.
	net.Attach(cfg.MetaAddr, serveMeta(net, meta))

	// Recursive host endpoint: the transport layer's vnet host demuxes
	// replies to the per-query endpoints the exchanger opens.
	em.host = transport.NewVNetHost(net, cfg.RecursiveAddr)

	res, err := resolver.New(resolver.Config{
		Roots:    []netip.AddrPort{netip.AddrPortFrom(zonegen.RootAddr, 53)},
		Exchange: &transport.Exchanger{Dialer: em.host, DisableTCPFallback: true},
		Cache:    cfg.Cache,
		EDNSSize: cfg.EDNSSize,
		DO:       cfg.DO,
		Tap:      cfg.Tap,
	})
	if err != nil {
		return nil, err
	}
	em.Resolver = res
	return em, nil
}

// serveMeta is the meta-server's packet handler: it answers each query
// through the server's pooled wire path (so repeated referrals come
// pre-packed from the answer cache) and replies from the address the
// query reached, with the client's address as the view selector — after
// the recursive proxy's rewrite, that is the original query destination.
func serveMeta(n *vnet.Network, meta *server.Server) vnet.Handler {
	return func(pkt vnet.Packet) {
		req := dnsmsg.GetMsg()
		defer dnsmsg.PutMsg(req)
		if err := req.UnpackBuffer(pkt.Payload); err != nil {
			return
		}
		bp := transport.GetBuf()
		defer transport.PutBuf(bp)
		wire, err := meta.HandleQueryWire(pkt.Src.Addr(), req, 0, (*bp)[:0])
		if err != nil {
			return
		}
		// Delivery is synchronous but receivers queue the payload, so
		// the fabric gets its own copy, not the pooled buffer.
		reply := vnet.Packet{Src: pkt.Dst, Dst: pkt.Src, Payload: append([]byte(nil), wire...)}
		_ = n.Send(reply) //ldp:nolint errcheck — vnet counts undeliverable packets; a dropped response models real packet loss (paper §2.4)
	}
}

// Resolve runs one query through the emulated hierarchy.
func (em *Emulation) Resolve(ctx context.Context, name dnsmsg.Name, qtype dnsmsg.Type) (*dnsmsg.Msg, error) {
	return em.Resolver.Resolve(ctx, name, qtype)
}

// NewDirect builds the no-proxy, no-split-horizon comparison the paper
// uses to motivate the design (§2.4): the same server hosts every zone
// in one view and is reachable at every nameserver address. A resolver
// asking the "root" for www.example.com gets the final A record
// immediately — optimizations short-circuit the hierarchy, which is
// precisely the distortion the proxies exist to prevent.
func NewDirect(h *zonegen.Hierarchy, cfg Config) (*Emulation, error) {
	if !cfg.RecursiveAddr.IsValid() {
		cfg = DefaultConfig()
	}
	net := vnet.New()
	meta := server.New(server.Config{})
	for _, z := range h.Zones {
		if err := meta.AddZone(z); err != nil {
			return nil, err
		}
	}
	em := &Emulation{Net: net, Meta: meta, cfg: cfg}
	// The one server answers at every authoritative address.
	handler := serveMeta(net, meta)
	for _, addr := range h.NSAddr {
		net.Attach(addr, handler)
	}
	em.host = transport.NewVNetHost(net, cfg.RecursiveAddr)
	res, err := resolver.New(resolver.Config{
		Roots:    []netip.AddrPort{netip.AddrPortFrom(zonegen.RootAddr, 53)},
		Exchange: &transport.Exchanger{Dialer: em.host, DisableTCPFallback: true},
		Cache:    cfg.Cache,
		EDNSSize: cfg.EDNSSize,
		DO:       cfg.DO,
		Tap:      cfg.Tap,
	})
	if err != nil {
		return nil, err
	}
	em.Resolver = res
	return em, nil
}
