package server

import (
	"sync"
	"sync/atomic"

	"ldplayer/internal/dnsmsg"
	"ldplayer/internal/obs"
)

// Stats is the server's accounting, held as live obs instruments in the
// server's registry ("server." namespace) so a debug endpoint observes
// the counters while the server runs. Every counter the per-query path
// touches is an obs.ShardedCounter: each UDP shard increments its own
// cache-line-padded slot and the totals are summed lazily at snapshot
// time, so N shards never contend on one counter word. Slot 0 backs the
// stream listeners and the public HandleQuery* API; UDP shards claim
// slots 1..N via shardView. The experiment harness still polls Snapshot
// the way the paper polled top/dstat/netstat.
type Stats struct {
	reg *obs.Registry

	queries   *obs.ShardedCounter
	responses *obs.ShardedCounter
	refused   *obs.ShardedCounter
	truncated *obs.ShardedCounter
	axfr      *obs.Counter

	bytesIn  *obs.ShardedCounter
	bytesOut *obs.ShardedCounter

	udpQueries *obs.ShardedCounter
	tcpQueries *obs.Counter
	tlsQueries *obs.Counter

	tcpConnsOpen  *obs.Gauge // currently established
	tcpConnsTotal *obs.Counter
	tlsConnsOpen  *obs.Gauge
	tlsConnsTotal *obs.Counter

	rrlDropped *obs.ShardedCounter
	rrlSlipped *obs.ShardedCounter

	// Pre-packed answer cache economics (HandleQueryWire and the shard
	// loops; the Msg-returning HandleQuery path never consults a cache).
	cacheHits      *obs.ShardedCounter
	cacheMisses    *obs.ShardedCounter
	cacheEvictions *obs.ShardedCounter

	// nextSlot hands out per-shard slots; slot 0 is the stream/API view.
	nextSlot atomic.Int64
	stream   *statView
}

// statView is one slot's face of Stats: every counter the query path
// touches, resolved to a private cache-line-padded slot so hot-path
// increments never bounce a line between cores. A UDP shard owns one
// view exclusively; the stream view (slot 0) is shared by stream
// connection goroutines, which is safe — slots are atomic counters —
// just not contention-free.
type statView struct {
	stats *Stats
	slot  int

	queries   *obs.Counter
	responses *obs.Counter
	refused   *obs.Counter
	truncated *obs.Counter

	bytesIn  *obs.Counter
	bytesOut *obs.Counter

	udpQueries *obs.Counter

	rrlDropped *obs.Counter
	rrlSlipped *obs.Counter

	cacheHits      *obs.Counter
	cacheMisses    *obs.Counter
	cacheEvictions *obs.Counter

	// Per-rcode and per-qtype breakdowns (the paper's Table 1 query-mix
	// view, live). Series are shared across slots by name; each view
	// caches its own slot handle on first sighting so the per-query
	// path stays one atomic load + one add, with no string building.
	rcodes [16]atomic.Pointer[obs.Counter]
	qtypes sync.Map // dnsmsg.Type -> *obs.Counter
}

// init binds every instrument in reg; called once from New.
func (s *Stats) init(reg *obs.Registry) {
	s.reg = reg
	s.queries = reg.ShardedCounter("server.queries")
	s.responses = reg.ShardedCounter("server.responses")
	s.refused = reg.ShardedCounter("server.refused")
	s.truncated = reg.ShardedCounter("server.truncated")
	s.axfr = reg.Counter("server.axfr")
	s.bytesIn = reg.ShardedCounter("server.bytes_in")
	s.bytesOut = reg.ShardedCounter("server.bytes_out")
	s.udpQueries = reg.ShardedCounter("server.queries.udp")
	s.tcpQueries = reg.Counter("server.queries.tcp")
	s.tlsQueries = reg.Counter("server.queries.tls")
	s.tcpConnsOpen = reg.Gauge("server.conns.tcp_open")
	s.tcpConnsTotal = reg.Counter("server.conns.tcp_total")
	s.tlsConnsOpen = reg.Gauge("server.conns.tls_open")
	s.tlsConnsTotal = reg.Counter("server.conns.tls_total")
	s.rrlDropped = reg.ShardedCounter("server.rrl.dropped")
	s.rrlSlipped = reg.ShardedCounter("server.rrl.slipped")
	s.cacheHits = reg.ShardedCounter("server.anscache.hits")
	s.cacheMisses = reg.ShardedCounter("server.anscache.misses")
	s.cacheEvictions = reg.ShardedCounter("server.anscache.evictions")
	s.stream = s.view(0)
}

// view resolves every sharded counter to one slot.
func (s *Stats) view(slot int) *statView {
	return &statView{
		stats:          s,
		slot:           slot,
		queries:        s.queries.Slot(slot),
		responses:      s.responses.Slot(slot),
		refused:        s.refused.Slot(slot),
		truncated:      s.truncated.Slot(slot),
		bytesIn:        s.bytesIn.Slot(slot),
		bytesOut:       s.bytesOut.Slot(slot),
		udpQueries:     s.udpQueries.Slot(slot),
		rrlDropped:     s.rrlDropped.Slot(slot),
		rrlSlipped:     s.rrlSlipped.Slot(slot),
		cacheHits:      s.cacheHits.Slot(slot),
		cacheMisses:    s.cacheMisses.Slot(slot),
		cacheEvictions: s.cacheEvictions.Slot(slot),
	}
}

// shardView claims a fresh slot for one UDP shard.
func (s *Stats) shardView() *statView {
	return s.view(int(s.nextSlot.Add(1)))
}

// countRcode bumps the per-rcode counter, creating this slot's handle
// on first use.
func (v *statView) countRcode(rc dnsmsg.Rcode) {
	if int(rc) >= len(v.rcodes) {
		return // extended rcodes never come out of HandleQuery
	}
	c := v.rcodes[rc].Load()
	if c == nil {
		// Bounded dynamic family: 16 rcodes, each series cached after
		// first use.
		c = v.stats.reg.ShardedCounter("server.rcode." + rc.String()).Slot(v.slot)
		v.rcodes[rc].Store(c)
	}
	c.Inc()
}

// countQtype bumps the per-qtype counter, creating this slot's handle
// on first use.
func (v *statView) countQtype(t dnsmsg.Type) {
	if c, ok := v.qtypes.Load(t); ok {
		c.(*obs.Counter).Inc()
		return
	}
	// Bounded dynamic family: qtypes seen in traffic, each series cached
	// after first use.
	c := v.stats.reg.ShardedCounter("server.qtype." + t.String()).Slot(v.slot)
	v.qtypes.Store(t, c)
	c.Inc()
}

// StatsSnapshot is a point-in-time copy of every counter (per-shard
// slots summed).
type StatsSnapshot struct {
	Queries, Responses, Refused, Truncated uint64
	AXFR                                   uint64
	BytesIn, BytesOut                      uint64
	UDPQueries, TCPQueries, TLSQueries     uint64
	TCPConnsOpen, TLSConnsOpen             int64
	TCPConnsTotal, TLSConnsTotal           uint64
	RRLDropped, RRLSlipped                 uint64
	CacheHits, CacheMisses, CacheEvictions uint64
}

// Snapshot copies the counters, aggregating shard slots.
func (s *Stats) Snapshot() StatsSnapshot {
	return StatsSnapshot{
		Queries:        s.queries.Value(),
		Responses:      s.responses.Value(),
		Refused:        s.refused.Value(),
		Truncated:      s.truncated.Value(),
		AXFR:           s.axfr.Value(),
		BytesIn:        s.bytesIn.Value(),
		BytesOut:       s.bytesOut.Value(),
		UDPQueries:     s.udpQueries.Value(),
		TCPQueries:     s.tcpQueries.Value(),
		TLSQueries:     s.tlsQueries.Value(),
		TCPConnsOpen:   int64(s.tcpConnsOpen.Value()),
		TLSConnsOpen:   int64(s.tlsConnsOpen.Value()),
		TCPConnsTotal:  s.tcpConnsTotal.Value(),
		TLSConnsTotal:  s.tlsConnsTotal.Value(),
		RRLDropped:     s.rrlDropped.Value(),
		RRLSlipped:     s.rrlSlipped.Value(),
		CacheHits:      s.cacheHits.Value(),
		CacheMisses:    s.cacheMisses.Value(),
		CacheEvictions: s.cacheEvictions.Value(),
	}
}
