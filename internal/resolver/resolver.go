// Package resolver implements an iterative (recursive-resolving) DNS
// server engine: it walks the hierarchy from the closest cached zone cut
// (the root hints when the cache is cold), follows referrals and CNAMEs,
// caches answers and delegations with TTLs, and can tap its upstream
// traffic so the zone constructor can rebuild zones from what a cold
// cache walk touches — exactly the paper's §2.3 construction procedure.
package resolver

import (
	"context"
	"errors"
	"fmt"
	"net/netip"
	"sync/atomic"
	"time"

	"ldplayer/internal/cache"
	"ldplayer/internal/dnsmsg"
)

// Exchanger sends one query to one authoritative server and returns its
// response. Implementations exist over real UDP sockets, the in-process
// virtual network (through the proxies), and the discrete-event
// simulator.
type Exchanger interface {
	Exchange(ctx context.Context, server netip.AddrPort, query *dnsmsg.Msg) (*dnsmsg.Msg, error)
}

// ExchangeFunc adapts a function to Exchanger.
type ExchangeFunc func(ctx context.Context, server netip.AddrPort, query *dnsmsg.Msg) (*dnsmsg.Msg, error)

// Exchange implements Exchanger.
func (f ExchangeFunc) Exchange(ctx context.Context, server netip.AddrPort, q *dnsmsg.Msg) (*dnsmsg.Msg, error) {
	return f(ctx, server, q)
}

// Tap observes every upstream exchange the resolver performs.
type Tap func(server netip.AddrPort, query, response *dnsmsg.Msg)

// Config parameterizes a Resolver.
type Config struct {
	// Roots are the root server addresses (hints). Required.
	Roots []netip.AddrPort
	// Exchange performs upstream queries. Required.
	Exchange Exchanger
	// Cache holds responses between queries; nil creates a default cache.
	Cache *cache.Cache
	// EDNSSize advertised upstream; 0 disables EDNS.
	EDNSSize uint16
	// DO sets the DNSSEC-OK bit on upstream queries.
	DO bool
	// Tap, when set, sees every upstream exchange.
	Tap Tap
}

// Resolver performs iterative resolution.
type Resolver struct {
	cfg   Config
	cache *cache.Cache
}

// Errors the resolver reports.
var (
	ErrNoRoots      = errors.New("resolver: no root hints")
	ErrLoop         = errors.New("resolver: referral loop or depth exceeded")
	ErrLame         = errors.New("resolver: lame delegation (no usable nameservers)")
	ErrCNAMEChain   = errors.New("resolver: CNAME chain too long")
	ErrUpstreamFail = errors.New("resolver: all upstream servers failed")
)

// New creates a resolver from cfg.
func New(cfg Config) (*Resolver, error) {
	if len(cfg.Roots) == 0 {
		return nil, ErrNoRoots
	}
	if cfg.Exchange == nil {
		return nil, errors.New("resolver: no exchanger")
	}
	c := cfg.Cache
	if c == nil {
		c = cache.New(0)
	}
	return &Resolver{cfg: cfg, cache: c}, nil
}

// Cache exposes the resolver's cache (experiments flush it between runs).
func (r *Resolver) Cache() *cache.Cache { return r.cache }

// Resolve answers (qname, qtype) by cache or by walking the hierarchy.
// The returned message has Rcode and sections filled; the caller stamps
// ID and header bits for its client.
func (r *Resolver) Resolve(ctx context.Context, qname dnsmsg.Name, qtype dnsmsg.Type) (*dnsmsg.Msg, error) {
	return r.resolve(ctx, qname, qtype, 0, 0)
}

// Per-query bounds: referrals followed down the hierarchy, and alias
// hops in a CNAME chain.
const (
	maxReferrals = 16
	maxCNAME     = 8
)

// maxGlueless bounds how deeply resolving one glue-less nameserver name
// may need another: two zones whose glue-less NS names point at each
// other would otherwise recurse without end.
const maxGlueless = 4

// resolve is Resolve inside cnameDepth alias hops and glueless nested
// nameserver-name resolutions.
func (r *Resolver) resolve(ctx context.Context, qname dnsmsg.Name, qtype dnsmsg.Type, cnameDepth, glueless int) (*dnsmsg.Msg, error) {
	if cnameDepth > maxCNAME {
		return nil, ErrCNAMEChain
	}
	key := cache.Key{Name: qname, Type: qtype}
	if e, left := r.cache.Get(key); e != nil {
		obsCacheHits.Inc()
		adj := cache.EntryWithAdjustedTTL(e, left)
		m := &dnsmsg.Msg{Rcode: adj.Rcode, Answer: adj.Answer, Authority: adj.Authority}
		return r.chaseCNAME(ctx, m, qname, qtype, cnameDepth, glueless)
	}
	obsCacheMisses.Inc()

	// Start at the deepest cached zone cut enclosing qname (RFC 1034
	// §5.3.3). DS lives on the parent side of a cut, so its walk starts
	// above qname.
	from := qname
	if qtype == dnsmsg.TypeDS {
		from = qname.Parent()
	}
	cut, servers := r.closestCut(from)
	if cut == dnsmsg.Root {
		obsWalkFromRoot.Inc()
	} else {
		obsWalkFromCut.Inc()
	}
	resp, lame, err := r.walk(ctx, qname, qtype, cut, servers, glueless)
	if lame && cut != dnsmsg.Root && ctx.Err() == nil {
		// Every server of the cached cut failed, but its parent may have
		// re-delegated: forget the cut and walk once more from above it.
		r.cache.Delete(cache.Key{Name: cut, Delegation: true})
		cut, servers = r.closestCut(cut.Parent())
		resp, _, err = r.walk(ctx, qname, qtype, cut, servers, glueless)
	}
	if err != nil {
		return nil, err
	}
	r.store(key, resp)
	return r.chaseCNAME(ctx, resp, qname, qtype, cnameDepth, glueless)
}

// closestCut returns the deepest live cached zone cut at or above name
// with its servers, or the root and its hints when none is cached.
func (r *Resolver) closestCut(name dnsmsg.Name) (dnsmsg.Name, []netip.AddrPort) {
	for ; name != dnsmsg.Root; name = name.Parent() {
		if e, _ := r.cache.Get(cache.Key{Name: name, Delegation: true}); e != nil {
			return name, e.Servers
		}
	}
	return dnsmsg.Root, r.cfg.Roots
}

// walk asks the servers of zone cut about (qname, qtype) and follows
// referrals down to a terminal response: an answer, NXDOMAIN or NODATA.
// lame reports that every server of cut itself failed.
func (r *Resolver) walk(ctx context.Context, qname dnsmsg.Name, qtype dnsmsg.Type, cut dnsmsg.Name, servers []netip.AddrPort, glueless int) (resp *dnsmsg.Msg, lame bool, err error) {
	for depth := 0; depth < maxReferrals; depth++ {
		if resp, err = r.queryAny(ctx, servers, qname, qtype); err != nil {
			return nil, depth == 0, err
		}
		switch {
		case resp.Rcode == dnsmsg.RcodeNXDomain,
			resp.Rcode == dnsmsg.RcodeSuccess && (len(resp.Answer) > 0 || !hasReferral(resp)):
			return resp, false, nil
		case hasReferral(resp):
			if cut, servers, err = r.followReferral(ctx, resp, cut, qname, glueless); err != nil {
				return nil, false, err
			}
		default:
			return nil, false, fmt.Errorf("%w: rcode %s", ErrUpstreamFail, resp.Rcode)
		}
	}
	return nil, false, ErrLoop
}

// chaseCNAME restarts resolution at an alias target when the answer ends
// in a CNAME without covering qtype.
func (r *Resolver) chaseCNAME(ctx context.Context, m *dnsmsg.Msg, qname dnsmsg.Name, qtype dnsmsg.Type, depth, glueless int) (*dnsmsg.Msg, error) {
	if qtype == dnsmsg.TypeCNAME || len(m.Answer) == 0 {
		return m, nil
	}
	last := m.Answer[len(m.Answer)-1]
	cn, ok := last.Data.(dnsmsg.CNAME)
	if !ok || last.Type != dnsmsg.TypeCNAME {
		return m, nil
	}
	// The answer may already include the target (in-zone chase by the
	// authoritative side).
	for _, rr := range m.Answer {
		if rr.Name == cn.Target && rr.Type == qtype {
			return m, nil
		}
	}
	sub, err := r.resolve(ctx, cn.Target, qtype, depth+1, glueless)
	if err != nil {
		return m, nil // serve the partial chain; clients retry the target
	}
	out := m.Copy()
	out.Answer = append(out.Answer, sub.Answer...)
	out.Rcode = sub.Rcode
	return out, nil
}

// followReferral extracts the delegated zone and nameserver addresses
// from a referral received at zone cut, resolving glue-less NS names as
// needed (glueless of them are already being resolved above), and caches the delegation under the TTL of the shortest-lived
// NS or address record it rests on. A referral must name a zone strictly
// below cut that encloses qname; any other (back to a zone already
// visited, upward or sideways) could loop or plant a delegation the walk
// never needed, so it ends the walk with ErrLoop.
func (r *Resolver) followReferral(ctx context.Context, resp *dnsmsg.Msg, cut, qname dnsmsg.Name, glueless int) (dnsmsg.Name, []netip.AddrPort, error) {
	var zoneName dnsmsg.Name
	var ns []dnsmsg.RR
	for _, rr := range resp.Authority {
		if rr.Type == dnsmsg.TypeNS {
			zoneName = rr.Name
			ns = append(ns, rr)
		}
	}
	if zoneName == cut || !zoneName.IsSubdomainOf(cut) || !qname.IsSubdomainOf(zoneName) {
		return "", nil, ErrLoop
	}
	ttl := cache.MinTTL(ns)
	var addrs []netip.AddrPort
	addAddr := func(rr dnsmsg.RR) {
		switch d := rr.Data.(type) {
		case dnsmsg.A:
			addrs = append(addrs, netip.AddrPortFrom(d.Addr, 53))
		case dnsmsg.AAAA:
			addrs = append(addrs, netip.AddrPortFrom(d.Addr, 53))
		default:
			return
		}
		ttl = min(ttl, time.Duration(rr.TTL)*time.Second)
	}
	for _, rr := range resp.Additional {
		addAddr(rr)
	}
	// Glue-less delegation: resolve the nameserver names themselves. A
	// name inside the delegated zone can only be found through the
	// delegation being resolved, so without glue it is no use.
	for _, rr := range ns {
		if len(addrs) > 0 {
			break
		}
		host := rr.Data.(dnsmsg.NS).Host
		if host.IsSubdomainOf(zoneName) {
			continue
		}
		if glueless >= maxGlueless {
			obsGluelessDepthExceeded.Inc()
			break
		}
		sub, err := r.resolve(ctx, host, dnsmsg.TypeA, 0, glueless+1)
		if err != nil {
			continue
		}
		for _, rr := range sub.Answer {
			if rr.Type == dnsmsg.TypeA {
				addAddr(rr)
			}
		}
	}
	if len(addrs) == 0 {
		return "", nil, ErrLame
	}
	r.cache.Put(cache.Key{Name: zoneName, Delegation: true}, &cache.Entry{Authority: ns, Servers: addrs}, ttl)
	return zoneName, addrs, nil
}

// queryAny tries each server in turn until one responds.
func (r *Resolver) queryAny(ctx context.Context, servers []netip.AddrPort, qname dnsmsg.Name, qtype dnsmsg.Type) (*dnsmsg.Msg, error) {
	var lastErr error = ErrUpstreamFail
	for i, srv := range servers {
		if i > 0 {
			obsUpstreamRetries.Inc()
		}
		obsUpstreamQueries.Inc()
		q := &dnsmsg.Msg{ID: nextID()}
		q.SetQuestion(qname, qtype)
		if r.cfg.EDNSSize > 0 {
			q.SetEDNS(r.cfg.EDNSSize, r.cfg.DO)
		}
		resp, err := r.cfg.Exchange.Exchange(ctx, srv, q)
		if err != nil {
			lastErr = err
			continue
		}
		if r.cfg.Tap != nil {
			r.cfg.Tap(srv, q, resp)
		}
		if resp.Rcode == dnsmsg.RcodeServFail || resp.Rcode == dnsmsg.RcodeRefused {
			lastErr = fmt.Errorf("%w: %s from %s", ErrUpstreamFail, resp.Rcode, srv)
			continue
		}
		return resp, nil
	}
	return nil, lastErr
}

func hasReferral(m *dnsmsg.Msg) bool {
	if m.Authoritative || len(m.Answer) > 0 {
		return false
	}
	for _, rr := range m.Authority {
		if rr.Type == dnsmsg.TypeNS {
			return true
		}
	}
	return false
}

func (r *Resolver) store(key cache.Key, resp *dnsmsg.Msg) {
	ttl := cache.MinTTL(resp.Answer, resp.Authority)
	if ttl <= 0 {
		return
	}
	// Negative TTL follows the SOA minimum when shorter (RFC 2308).
	if resp.Rcode == dnsmsg.RcodeNXDomain || len(resp.Answer) == 0 {
		for _, rr := range resp.Authority {
			if soa, ok := rr.Data.(dnsmsg.SOA); ok {
				neg := time.Duration(min32(soa.Minimum, rr.TTL)) * time.Second
				if neg < ttl {
					ttl = neg
				}
			}
		}
	}
	r.cache.Put(key, &cache.Entry{
		Rcode:     resp.Rcode,
		Answer:    resp.Answer,
		Authority: resp.Authority,
	}, ttl)
}

func min32(a, b uint32) uint32 {
	if a < b {
		return a
	}
	return b
}

var idCounter atomic.Uint32

// nextID hands out query IDs; uniqueness per in-flight socket is all DNS
// needs, and a counter keeps replays reproducible. Resolutions run
// concurrently (ServeUDP), so the counter is atomic.
func nextID() uint16 {
	return uint16(idCounter.Add(1))
}
