// Package server implements the authoritative DNS server at the heart of
// LDplayer's hierarchy emulation: a single server instance ("meta-DNS-
// server") that hosts many zones behind split-horizon views and answers
// as if each zone lived on its own machine. It listens on UDP, TCP and
// TLS with configurable idle timeouts — the knobs the paper's §5.2
// experiments sweep.
package server

import (
	"net/netip"
	"runtime"
	"sync"
	"time"

	"ldplayer/internal/dnsmsg"
	"ldplayer/internal/obs"
	"ldplayer/internal/zone"
)

// View is one split-horizon view: a client-address match plus the zones
// served to clients that match. With proxy rewriting, the "client
// address" seen here is the original query destination address (OQDA),
// so matching on it selects the hierarchy level the query was aimed at —
// the paper's core trick (§2.4).
type View struct {
	Name  string
	Zones *ZoneSet

	addrs    map[netip.Addr]bool
	prefixes []netip.Prefix
	matchAll bool
}

// NewView creates a view matching the given addresses and prefixes.
// With neither, the view matches every client (a default view).
func NewView(name string, addrs []netip.Addr, prefixes []netip.Prefix) *View {
	v := &View{Name: name, Zones: NewZoneSet(), prefixes: prefixes,
		matchAll: len(addrs) == 0 && len(prefixes) == 0}
	if len(addrs) > 0 {
		v.addrs = make(map[netip.Addr]bool, len(addrs))
		for _, a := range addrs {
			v.addrs[a] = true
		}
	}
	return v
}

// Matches reports whether a client at src selects this view.
func (v *View) Matches(src netip.Addr) bool {
	if v.matchAll {
		return true
	}
	if v.addrs[src] {
		return true
	}
	for _, p := range v.prefixes {
		if p.Contains(src) {
			return true
		}
	}
	return false
}

// Config parameterizes a Server.
type Config struct {
	// TCPIdleTimeout closes idle TCP/TLS connections (paper: 5–40 s).
	TCPIdleTimeout time.Duration
	// UDPWorkers is the number of UDP shards. Each shard is one serve
	// goroutine with its own socket (when the listener supports
	// SO_REUSEPORT; see transport.ListenUDPReusePort), its own answer
	// cache and its own counter slots, so shards share nothing on the
	// query path. Defaults to runtime.GOMAXPROCS(0) — one shard per
	// schedulable core; set explicitly to pin a different width (e.g. 1
	// to reproduce single-pipeline baselines).
	UDPWorkers int
	// MaxUDPSize caps UDP responses when the client sends no EDNS.
	MaxUDPSize int
	// RRL, when set, rate-limits UDP responses per client prefix
	// (reflection-flood defense; see NewRRL).
	RRL *RRL
	// Obs is the registry the server's live instruments register in.
	// Pass obs.Default to expose them on a process-wide debug endpoint
	// (ldp-server does); nil keeps a private registry so multiple server
	// instances in one process account independently.
	Obs *obs.Registry
}

// Server answers authoritative DNS queries from its views.
type Server struct {
	cfg   Config
	views []*View
	// The view index (see viewFor): exact maps every address some view
	// lists to the registration index of the first view listing it, and
	// inexact holds, in registration order, the indices of the views
	// that match by prefix or match everyone.
	exact    map[netip.Addr]int
	inexact  []int
	stats    Stats
	anscache ansCache
}

// New creates a server with no views; add at least one before serving.
func New(cfg Config) *Server {
	if cfg.TCPIdleTimeout == 0 {
		cfg.TCPIdleTimeout = 20 * time.Second
	}
	if cfg.UDPWorkers == 0 {
		cfg.UDPWorkers = runtime.GOMAXPROCS(0)
	}
	if cfg.MaxUDPSize == 0 {
		cfg.MaxUDPSize = dnsmsg.MaxUDPSize
	}
	if cfg.Obs == nil {
		cfg.Obs = obs.NewRegistry()
	}
	s := &Server{cfg: cfg}
	s.stats.init(cfg.Obs)
	s.anscache.init()
	return s
}

// Obs returns the registry holding the server's live instruments.
func (s *Server) Obs() *obs.Registry { return s.cfg.Obs }

// AddView appends a view; views match in registration order. Register
// every view before serving: the view index is not synchronized.
func (s *Server) AddView(v *View) {
	i := len(s.views)
	s.views = append(s.views, v)
	for a := range v.addrs {
		if s.exact == nil {
			s.exact = make(map[netip.Addr]int)
		}
		if _, dup := s.exact[a]; !dup {
			s.exact[a] = i
		}
	}
	if v.matchAll || len(v.prefixes) > 0 {
		s.inexact = append(s.inexact, i)
	}
}

// AddZone adds a zone to a match-all default view (single-horizon use).
func (s *Server) AddZone(z *zone.Zone) error {
	if len(s.views) == 0 || !s.views[len(s.views)-1].matchAll {
		s.AddView(NewView("default", nil, nil))
	}
	return s.views[len(s.views)-1].Zones.Add(z)
}

// Stats returns a snapshot of the server's counters.
func (s *Server) Stats() StatsSnapshot { return s.stats.Snapshot() }

// viewFor selects the first matching view in registration order. The
// exact-address index names the first view listing src; only a prefix
// or match-all view registered before it can win instead, so the walk
// covers those alone and the cost does not grow with the number of
// exact-address views (the meta-server's one view per zone).
func (s *Server) viewFor(src netip.Addr) *View {
	hit, ok := s.exact[src]
	if !ok {
		hit = len(s.views)
	}
	for _, i := range s.inexact {
		if i >= hit {
			break
		}
		if s.views[i].Matches(src) {
			return s.views[i]
		}
	}
	if ok {
		return s.views[hit]
	}
	return nil
}

// HandleQuery is the transport-independent core: it answers one query
// from a client at src. maxSize caps the response (UDP truncation); pass
// 0 for stream transports. The returned message is never nil and is
// owned by the caller indefinitely — this path allocates fresh backing
// per call and never touches the message pool or the answer cache.
// Serve loops use HandleQueryWire, the pooled wire-to-wire form.
func (s *Server) HandleQuery(src netip.Addr, req *dnsmsg.Msg, maxSize int) *dnsmsg.Msg {
	resp := &dnsmsg.Msg{}
	var ans zone.Answer
	st := s.stats.stream
	s.answerInto(resp, &ans, s.viewFor(src), req, maxSize, st)
	st.countRcode(resp.Rcode)
	return resp
}

// ansPool recycles zone-lookup scratch across wire-path queries.
var ansPool = sync.Pool{New: func() any { return new(zone.Answer) }}

// HandleQueryWire answers one decoded query straight to wire format,
// packing into out's storage (pass out[:0] of a reused buffer) and
// returning the packed response. It is the serve-loop hot path: repeat
// queries are served from the pre-packed answer cache with a header
// patch (ID + RD bit) and no zone walk or packing at all, and misses
// run through pooled scratch so a warm server allocates only on cache
// insertion. The returned slice aliases out (when it had capacity) and
// is only valid until the next call with the same buffer.
//
// This public form runs against the server-wide answer cache and the
// shared stream stats view; UDP shards call handleQueryWire with their
// private cache and counter slots instead.
func (s *Server) HandleQueryWire(src netip.Addr, req *dnsmsg.Msg, maxSize int, out []byte) ([]byte, error) {
	return s.handleQueryWire(src, req, maxSize, out, &s.anscache, s.stats.stream)
}

// handleQueryWire is HandleQueryWire against an explicit answer cache
// and stat view. Each UDP shard passes its own pair, so two shards
// answering concurrently touch no common mutable state on this path.
func (s *Server) handleQueryWire(src netip.Addr, req *dnsmsg.Msg, maxSize int, out []byte, cache *ansCache, st *statView) ([]byte, error) {
	var (
		key   ansKey
		gen   uint64
		limit int
	)
	v := s.viewFor(src)
	cacheable := v != nil && req.Opcode == dnsmsg.OpcodeQuery && len(req.Question) == 1 &&
		req.Question[0].Class == dnsmsg.ClassINET
	if cacheable {
		q := req.Question[0]
		udpSize, do, hasEDNS := req.EDNS()
		limit = dnsmsg.ResponseLimit(maxSize, udpSize, hasEDNS)
		key = ansKey{view: v, name: q.Name, qtype: q.Type, do: do, edns: hasEDNS, size: sizeClass(limit)}
		gen = v.Zones.Generation()
		if e, ok := cache.get(key, gen); ok {
			st.cacheHits.Inc()
			st.queries.Inc()
			st.countQtype(q.Type)
			wire := e.full
			if limit > 0 && len(e.full) > limit {
				wire = e.trunc
				st.truncated.Add(1)
			}
			out = append(out[:0], wire...)
			out[0] = byte(req.ID >> 8)
			out[1] = byte(req.ID)
			if req.RecursionDesired {
				out[2] |= 1 // RD is bit 8 of the flags word: bit 0 of byte 2
			}
			st.responses.Add(1)
			st.countRcode(e.rcode)
			return out, nil
		}
		st.cacheMisses.Inc()
	}

	resp := dnsmsg.GetMsg()
	defer dnsmsg.PutMsg(resp)
	ans := ansPool.Get().(*zone.Answer)
	defer ansPool.Put(ans)
	// resp's sections will alias ans's backing arrays; detach them before
	// resp returns to the message pool, or two separately pooled objects
	// would share storage and race once handed to different workers. resp
	// gets its own section arrays back, not nil: the pool is shared with
	// every decoder in the process (a Conn's per-response UnpackBuffer),
	// which would otherwise regrow them on every message it draws.
	ownAns, ownAuth, ownAdd := resp.Answer, resp.Authority, resp.Additional
	defer func() { resp.Answer, resp.Authority, resp.Additional = ownAns, ownAuth, ownAdd }()

	// Truncation happens at the wire level here (the cache needs the full
	// form regardless), so answerInto runs uncapped.
	fromZone := s.answerInto(resp, ans, v, req, 0, st)
	st.countRcode(resp.Rcode)
	out, err := resp.PackBuffer(out[:0])
	if err != nil {
		return nil, err
	}

	insert := fromZone && cacheable && cache.admit(key)
	needTrunc := limit > 0 && len(out) > limit
	var truncWire []byte
	if insert || needTrunc {
		// Rebuild resp as its truncated-empty form (same mutation
		// truncateTo applies) and pack that too.
		resp.Truncate()
		truncWire, err = resp.PackBuffer(make([]byte, 0, 64))
		if err != nil {
			return nil, err
		}
	}
	if insert {
		kc := key
		kc.name = key.name.Clone() // the request name is arena-backed
		// Both wires are cloned: out is the caller's buffer, and truncWire
		// may still be served below, so the normalization (which zeroes
		// header bytes in place) must not touch either original.
		e := &ansEntry{
			full:  normalizeWire(append([]byte(nil), out...)),
			trunc: normalizeWire(append([]byte(nil), truncWire...)),
			rcode: resp.Rcode,
			gen:   gen,
		}
		if ev := cache.put(kc, e); ev > 0 {
			st.cacheEvictions.Add(uint64(ev))
		}
	}
	if needTrunc {
		out = append(out[:0], truncWire...)
		st.truncated.Add(1)
	}
	return out, nil
}

// normalizeWire zeroes the request-echoed header bits (ID, RD) so one
// cached wire serves every requester; the hit path patches them back.
func normalizeWire(wire []byte) []byte {
	wire[0] = 0
	wire[1] = 0
	wire[2] &^= 1
	return wire
}

// sizeClass buckets an effective limit for the answer-cache key: exact
// limits vary per client (EDNS sizes), but responses only care which
// side of the truncation threshold they land on, and bucketing keeps one
// entry per behavior class instead of one per advertised size.
func sizeClass(limit int) uint8 {
	switch {
	case limit <= 0:
		return 0
	case limit <= dnsmsg.MaxUDPSize:
		return 1
	case limit <= 1232: // common EDNS default (DNS flag day 2020)
		return 2
	case limit <= dnsmsg.DefaultEDNSUDP:
		return 3
	default:
		return 4
	}
}

// answerInto fills resp (via SetReply on req) with the authoritative
// answer from view v (the client's viewFor; nil refuses), using ans as
// section scratch — resp's sections alias ans's backing arrays
// afterwards. It reports whether the response came from a zone lookup;
// header-only rejections (NOTIMPL, REFUSED) return false.
func (s *Server) answerInto(resp *dnsmsg.Msg, ans *zone.Answer, v *View, req *dnsmsg.Msg, maxSize int, st *statView) (fromZone bool) {
	st.queries.Inc()
	resp.SetReply(req)

	if req.Opcode != dnsmsg.OpcodeQuery || len(req.Question) != 1 {
		resp.Rcode = dnsmsg.RcodeNotImpl
		return false
	}
	q := req.Question[0]
	if q.Class != dnsmsg.ClassINET && q.Class != dnsmsg.ClassANY {
		resp.Rcode = dnsmsg.RcodeNotImpl
		return false
	}
	st.countQtype(q.Type)

	udpSize, do, hasEDNS := req.EDNS()

	if v == nil {
		resp.Rcode = dnsmsg.RcodeRefused
		st.refused.Add(1)
		return false
	}
	z, ok := v.Zones.Find(q.Name)
	if !ok {
		resp.Rcode = dnsmsg.RcodeRefused
		st.refused.Add(1)
		return false
	}

	z.QueryInto(ans, q.Name, q.Type, do)
	resp.Rcode = ans.Rcode
	resp.Answer = ans.Answer
	resp.Authority = ans.Authority
	resp.Additional = ans.Additional
	switch ans.Result {
	case zone.ResultAnswer, zone.ResultNoData, zone.ResultNXDomain:
		resp.Authoritative = true
	default:
		resp.Authoritative = false
	}
	if hasEDNS {
		resp.SetEDNS(dnsmsg.DefaultEDNSUDP, do)
		// Hand any growth for the OPT back to the scratch, or a pooled
		// Answer whose array is exactly full reallocates on every query.
		ans.Additional = resp.Additional
	}

	if limit := dnsmsg.ResponseLimit(maxSize, udpSize, hasEDNS); limit > 0 {
		s.truncateTo(resp, limit, st)
	}
	st.responses.Add(1)
	return true
}

// truncateTo enforces a byte limit: if the packed response exceeds it,
// all sections except a retained OPT are dropped and TC is set, telling
// the client to retry over TCP.
func (s *Server) truncateTo(resp *dnsmsg.Msg, limit int, st *statView) {
	wire, err := resp.Pack()
	if err != nil || len(wire) <= limit {
		return
	}
	resp.Truncate()
	st.truncated.Add(1)
}
