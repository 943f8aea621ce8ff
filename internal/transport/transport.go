// Package transport is the one pluggable DNS transport stack shared by
// every networking component in the repository: the authoritative
// server's listeners, the replay queriers, the recursive resolver's
// upstream exchanges, and the experiment harness all speak through the
// interfaces here. It provides
//
//   - Endpoint / Listener: message-oriented channels over real UDP, TCP
//     and TLS sockets and over the in-process vnet packet fabric, so any
//     component runs on real or simulated networks interchangeably;
//   - Exchanger: one-shot request/response with per-attempt deadlines,
//     response-ID matching and the standard TC→TCP fallback;
//   - Conn: a reusable connection manager with query-ID allocation,
//     pending-query tracking, idle-timeout reuse and reconnect-on-error,
//     parameterized by protocol (the replay querier's engine);
//   - a sync.Pool of read/write buffers replacing per-call 64 KiB
//     allocations on every hot path, borrowed only while a message is in
//     hand: RecvPooled waits for the next stream message holding no
//     buffer (the prefix is read into the endpoint's own 2 bytes), so an
//     idle connection costs its socket, its goroutine and its pending
//     map, not 64 KiB.
//
// The paper's claim (§2.6, §4) that one framework drives UDP, TCP and
// TLS workloads through the same pipeline is realized by this package:
// protocol choice is a Dial parameter, not a reimplementation.
package transport

import (
	"context"
	"errors"
	"net"
	"net/netip"
	"time"
)

// Proto selects the wire transport for a dialed endpoint.
type Proto uint8

// Supported transports.
const (
	UDP Proto = iota
	TCP
	TLS
)

// String names the protocol for errors and logs.
func (p Proto) String() string {
	switch p {
	case UDP:
		return "udp"
	case TCP:
		return "tcp"
	case TLS:
		return "tls"
	}
	return "unknown"
}

// Endpoint is one connected DNS message channel. Send writes a whole
// message; Recv reads the next whole message into buf (use GetBuf for a
// buffer that always fits) and returns its length. Framing — datagram
// boundaries on UDP/vnet, the 2-byte length prefix on TCP/TLS — is the
// endpoint's business; callers only ever see complete messages.
type Endpoint interface {
	Send(msg []byte) error
	Recv(buf []byte) (int, error)
	SetDeadline(t time.Time) error
	Close() error
	LocalAddr() netip.AddrPort
	RemoteAddr() netip.AddrPort
}

// Listener accepts stream Endpoints (the server side of TCP/TLS).
type Listener interface {
	Accept() (Endpoint, error)
	Close() error
	Addr() netip.AddrPort
}

// Dialer opens Endpoints toward a server. Implementations exist over
// real sockets (NetDialer) and over the vnet fabric (VNetHost).
type Dialer interface {
	Dial(ctx context.Context, proto Proto, server netip.AddrPort) (Endpoint, error)
}

// PacketDialer is a Dialer whose fabric can also vend an unconnected
// datagram socket. It is what the replay engine takes as its injected
// fabric: every querier sends its UDP queries through one such socket,
// driven by UDPBatch, and dials stream sources through Dial. VNetHost
// implements it; with no dialer injected the replay engine opens real
// sockets itself.
type PacketDialer interface {
	Dialer
	ListenPacketConn() (net.PacketConn, error)
}

// Errors shared across implementations.
var (
	// ErrClosed is returned by operations on a closed endpoint or conn.
	ErrClosed = errors.New("transport: closed")
	// ErrIDSpaceExhausted reports that all 65536 query IDs on one Conn
	// are in flight; the send is refused rather than silently orphaning
	// an outstanding query.
	ErrIDSpaceExhausted = errors.New("transport: all 65536 query IDs in flight")
	// ErrNoTLSConfig reports a TLS dial without a TLS configuration.
	ErrNoTLSConfig = errors.New("transport: TLS dial without TLS config")
)

// timeoutError satisfies net.Error with Timeout()==true, so deadline
// expiry on simulated endpoints is indistinguishable from a real
// socket's i/o timeout to callers doing errors.As checks.
type timeoutError struct{}

func (timeoutError) Error() string   { return "transport: i/o timeout" }
func (timeoutError) Timeout() bool   { return true }
func (timeoutError) Temporary() bool { return true }

// ErrTimeout is the deadline-expiry error simulated endpoints return.
var ErrTimeout net.Error = timeoutError{}

// AddrPortOf extracts the (unmapped) address and port from a net.Addr of
// any flavor — the shared replacement for per-package addrOf helpers.
func AddrPortOf(a net.Addr) netip.AddrPort {
	switch v := a.(type) {
	case *net.UDPAddr:
		ap := v.AddrPort()
		return netip.AddrPortFrom(ap.Addr().Unmap(), ap.Port())
	case *net.TCPAddr:
		ap := v.AddrPort()
		return netip.AddrPortFrom(ap.Addr().Unmap(), ap.Port())
	case vnetAddr:
		return netip.AddrPort(v)
	}
	if a == nil {
		return netip.AddrPort{}
	}
	if ap, err := netip.ParseAddrPort(a.String()); err == nil {
		return netip.AddrPortFrom(ap.Addr().Unmap(), ap.Port())
	}
	return netip.AddrPort{}
}
