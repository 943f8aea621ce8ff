package replay

import (
	"context"
	"net/netip"
	"time"

	"ldplayer/internal/dnsmsg"
	"ldplayer/internal/trace"
	"ldplayer/internal/transport"
)

// Each emulated stream source gets its own connection, so the server
// observes distinct (address, port) client endpoints and per-source
// connection reuse works exactly as in the paper (§2.6). Query-ID
// rewriting, pending tracking, idle-timeout reuse and reconnect-on-error
// all live in transport.Conn; this file only maps trace sources onto
// Conns and wires querier accounting into the Conn callbacks — shared
// with the tests' reference querier, so the two planes differ only in
// scheduling, never in connection semantics. UDP has no connection to
// reuse and goes through the querier's one sender (udpsender.go).

// connKey identifies one emulated source connection: sources that mix
// protocols (rare in real traces, common in tests) get one connection
// per protocol, like separate sockets on a real client.
type connKey struct {
	src   netip.Addr
	proto trace.Proto
}

// newSourceConn builds the transport.Conn for one emulated source over
// dial, closed after idle without sends (0: never). Tokens are
// resultLog/results indexes (-1 when results are dropped); onResponse
// and onDrop are the querier's accounting hooks.
func newSourceConn(st *stats, dial func() (transport.Endpoint, error), idle time.Duration,
	onResponse func(idx int, rtt time.Duration), onDrop func()) *transport.Conn {
	return transport.NewConn(transport.ConnConfig{
		Dial:        dial,
		IdleTimeout: idle,
		OnResponse: func(token any, rtt time.Duration, _ []byte) {
			onResponse(token.(int), rtt)
		},
		// The decoded view (read loop's pooled message, zero extra
		// allocation) feeds the per-rcode breakdown — the live view of
		// whether the replayed server answered with data, NXDOMAIN, or
		// errors, which raw wire matching cannot see.
		OnResponseMsg: func(_ any, _ time.Duration, m *dnsmsg.Msg) {
			if m == nil {
				st.badResponses.Inc()
				return
			}
			st.countRcode(m.Rcode)
		},
		OnDrop: func(any) { onDrop() },
	})
}

// connFor returns (creating on first use) the connection for a source.
func (q *querier) connFor(src netip.Addr, proto trace.Proto) *transport.Conn {
	key := connKey{src: src, proto: proto}
	if c := q.conns[key]; c != nil {
		return c
	}
	c := newSourceConn(q.st, streamDial(q.cfg, proto), q.cfg.ConnIdleTimeout, q.recordResponse, q.recordDrop)
	q.conns[key] = c
	return c
}

// streamDial builds the dialer a TCP or TLS source connection uses.
// Config.Dialer substitutes the endpoint fabric (e.g. vnet) without the
// querier knowing; real sockets are the default, and a TLS query
// without Config.TLSConfig fails its dial (transport.ErrNoTLSConfig).
func streamDial(cfg Config, proto trace.Proto) func() (transport.Endpoint, error) {
	var dialer transport.Dialer = cfg.Dialer
	if cfg.Dialer == nil {
		dialer = &transport.NetDialer{TLSConfig: cfg.TLSConfig}
	}
	tp, server := transport.TCP, cfg.Server
	if proto == trace.TLS {
		tp, server = transport.TLS, cfg.TLSServer
	}
	return func() (transport.Endpoint, error) {
		return dialer.Dial(context.Background(), tp, server)
	}
}
