package transport

import (
	"ldplayer/internal/obs"

	"ldplayer/internal/dnsmsg"
)

// Live instruments for the shared transport stack, in the process-wide
// obs.Default registry ("transport." namespace). The transport layer is
// below every component that owns a config, so its instruments are
// package-level: one process has one transport stack, and the counters
// aggregate every exchange, connection and buffer the process performs.
// Per-Conn accounting (Dials, IDExhausted methods) is unchanged; these
// series are the live process-wide view.
var (
	// obsExchanges counts Exchanger.Exchange calls by initial protocol;
	// obsExchangesAll is their sum, kept separately so the hot path does
	// two plain atomic adds instead of a map walk at scrape time.
	obsExchangesAll = obs.Default.Counter("transport.exchanges")
	obsExchanges    = [3]*obs.Counter{
		UDP: obs.Default.Counter("transport.exchanges.udp"),
		TCP: obs.Default.Counter("transport.exchanges.tcp"),
		TLS: obs.Default.Counter("transport.exchanges.tls"),
	}
	obsExchangeErrs = obs.Default.Counter("transport.exchange_errors")
	obsTCFallbacks  = obs.Default.Counter("transport.tc_fallbacks")
	obsExchangeRTT  = obs.Default.Histogram("transport.exchange_rtt_seconds", obs.LatencyBuckets)

	// Conn lifecycle: dials counts every endpoint opened; redials the
	// subset that replaced an earlier endpoint on the same Conn (idle
	// close or error failover); drops the in-flight queries failed out
	// when an endpoint died.
	obsConnDials       = obs.Default.Counter("transport.conn.dials")
	obsConnRedials     = obs.Default.Counter("transport.conn.redials")
	obsConnIDExhausted = obs.Default.Counter("transport.conn.id_exhausted")
	obsConnDrops       = obs.Default.Counter("transport.conn.drops")
	obsConnResponses   = obs.Default.Counter("transport.conn.responses")

	// Buffer pool economics: gets is every borrow, allocs the subset
	// that had to allocate a fresh 64 KiB buffer, puts every return.
	// Hit rate is 1 - allocs/gets; gets-puts is the number of buffers
	// currently borrowed (or leaked).
	obsBufGets   = obs.Default.Counter("transport.bufpool.gets")
	obsBufAllocs = obs.Default.Counter("transport.bufpool.allocs")
	obsBufPuts   = obs.Default.Counter("transport.bufpool.puts")

	// Message pool economics, exported on dnsmsg's behalf: dnsmsg sits
	// below obs in the module order and keeps its own atomics, so the
	// transport layer (the lowest package importing both) bridges them
	// as pull-style counters. Miss rate is news/gets; gets-puts is the
	// number of messages currently checked out (or leaked).
	_ = obs.Default.CounterFunc("dnsmsg.msgpool.gets", func() uint64 { return dnsmsg.PoolStats().Gets })
	_ = obs.Default.CounterFunc("dnsmsg.msgpool.puts", func() uint64 { return dnsmsg.PoolStats().Puts })
	_ = obs.Default.CounterFunc("dnsmsg.msgpool.news", func() uint64 { return dnsmsg.PoolStats().News })
)
