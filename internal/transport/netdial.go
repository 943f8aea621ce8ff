package transport

import (
	"context"
	"crypto/tls"
	"errors"
	"fmt"
	"net"
	"net/netip"
	"sync"
	"syscall"
	"time"

	"ldplayer/internal/dnsmsg"
)

// NetDialer opens Endpoints over real sockets: connected UDP, TCP, and
// TLS (which requires TLSConfig). The zero value dials UDP and TCP.
type NetDialer struct {
	// TLSConfig enables the TLS protocol. If it names no ServerName and
	// does not skip verification, the dialed address is used, matching
	// crypto/tls.Dial behaviour.
	TLSConfig *tls.Config
	// Dialer is the base net.Dialer (zero value works).
	Dialer net.Dialer
}

// Dial implements Dialer.
func (d *NetDialer) Dial(ctx context.Context, proto Proto, server netip.AddrPort) (Endpoint, error) {
	switch proto {
	case UDP:
		conn, err := d.Dialer.DialContext(ctx, "udp", server.String())
		if err != nil {
			return nil, err
		}
		return &packetEndpoint{conn: conn}, nil
	case TCP:
		conn, err := d.Dialer.DialContext(ctx, "tcp", server.String())
		if err != nil {
			return nil, err
		}
		return &streamEndpoint{conn: conn}, nil
	case TLS:
		cfg := d.TLSConfig
		if cfg == nil {
			return nil, ErrNoTLSConfig
		}
		if cfg.ServerName == "" && !cfg.InsecureSkipVerify {
			cfg = cfg.Clone()
			cfg.ServerName = server.Addr().String()
		}
		raw, err := d.Dialer.DialContext(ctx, "tcp", server.String())
		if err != nil {
			return nil, err
		}
		conn := tls.Client(raw, cfg)
		if err := conn.HandshakeContext(ctx); err != nil {
			raw.Close() //ldp:nolint errcheck — already failing the handshake; that error is the one reported
			return nil, err
		}
		return &streamEndpoint{conn: conn}, nil
	}
	return nil, net.UnknownNetworkError(proto.String())
}

// packetEndpoint is a connected datagram socket: one Read is one DNS
// message.
type packetEndpoint struct {
	conn net.Conn
}

func (e *packetEndpoint) Send(msg []byte) error {
	if len(msg) > dnsmsg.MaxMsgSize {
		return dnsmsg.ErrMsgTooLarge
	}
	_, err := e.conn.Write(msg)
	return err
}

func (e *packetEndpoint) Recv(buf []byte) (int, error) {
	return e.conn.Read(buf)
}

func (e *packetEndpoint) SetDeadline(t time.Time) error { return e.conn.SetDeadline(t) }
func (e *packetEndpoint) Close() error                  { return e.conn.Close() }
func (e *packetEndpoint) LocalAddr() netip.AddrPort     { return AddrPortOf(e.conn.LocalAddr()) }
func (e *packetEndpoint) RemoteAddr() netip.AddrPort    { return AddrPortOf(e.conn.RemoteAddr()) }

// streamEndpoint frames DNS messages on a byte stream with the 2-byte
// length prefix (RFC 1035 §4.2.2, RFC 7858). Prefix and body go out in
// one write from a pooled buffer — one segment on the wire (the Nagle
// interaction the paper tunes away) and no per-message allocation. A
// reader blocks on the prefix alone (read into pfx, the one reader's
// scratch) and needs body storage only once a message has begun.
type streamEndpoint struct {
	conn net.Conn
	wmu  sync.Mutex
	pfx  [2]byte
}

func (e *streamEndpoint) Send(msg []byte) error {
	e.wmu.Lock()
	defer e.wmu.Unlock()
	bp := GetBuf()
	defer PutBuf(bp)
	buf, err := dnsmsg.AppendTCPMsg((*bp)[:0], msg)
	if err != nil {
		return err
	}
	_, err = e.conn.Write(buf) //ldp:nolint mutexblock — wmu exists to serialize framed writes; interleaved frames would corrupt the stream
	return err
}

func (e *streamEndpoint) Recv(buf []byte) (int, error) {
	n, err := dnsmsg.ReadTCPLen(e.conn, &e.pfx)
	if err != nil {
		return 0, err
	}
	if n > len(buf) {
		return 0, fmt.Errorf("%w: message of %d bytes exceeds %d-byte buffer", dnsmsg.ErrLengthPrefix, n, len(buf))
	}
	if err := dnsmsg.ReadTCPBody(e.conn, buf[:n]); err != nil {
		return 0, err
	}
	return n, nil
}

func (e *streamEndpoint) RecvPooled() (*[]byte, int, error) {
	n, err := dnsmsg.ReadTCPLen(e.conn, &e.pfx)
	if err != nil {
		return nil, 0, err
	}
	bp := GetBuf()
	if err := dnsmsg.ReadTCPBody(e.conn, (*bp)[:n]); err != nil {
		PutBuf(bp)
		return nil, 0, err
	}
	return bp, n, nil
}

func (e *streamEndpoint) SetDeadline(t time.Time) error { return e.conn.SetDeadline(t) }
func (e *streamEndpoint) Close() error                  { return e.conn.Close() }
func (e *streamEndpoint) LocalAddr() netip.AddrPort     { return AddrPortOf(e.conn.LocalAddr()) }
func (e *streamEndpoint) RemoteAddr() netip.AddrPort    { return AddrPortOf(e.conn.RemoteAddr()) }

// streamListener adapts a net.Listener (plain TCP or tls.NewListener)
// into a Listener of framed endpoints.
type streamListener struct {
	ln net.Listener
}

// NewStreamListener wraps ln; each accepted connection speaks
// length-prefixed DNS messages.
func NewStreamListener(ln net.Listener) Listener {
	return &streamListener{ln: ln}
}

func (l *streamListener) Accept() (Endpoint, error) {
	conn, err := l.ln.Accept()
	if err != nil {
		return nil, err
	}
	return &streamEndpoint{conn: conn}, nil
}

func (l *streamListener) Close() error         { return l.ln.Close() }
func (l *streamListener) Addr() netip.AddrPort { return AddrPortOf(l.ln.Addr()) }

// ListenUDP binds a UDP socket and reports the bound address — the
// boilerplate every loopback server setup repeats.
func ListenUDP(addr string) (net.PacketConn, netip.AddrPort, error) {
	pc, err := net.ListenPacket("udp", addr)
	if err != nil {
		return nil, netip.AddrPort{}, err
	}
	return pc, AddrPortOf(pc.LocalAddr()), nil
}

// ListenUDPTCP binds a UDP socket and a TCP listener on one port, the
// shape of a DNS server whose truncated answers fall back to TCP on the
// same address. With port 0 the kernel picks the UDP port, which some
// other socket may hold for TCP (an ephemeral client port, say); the
// pair is then retried on a fresh port rather than failed.
func ListenUDPTCP(addr string) (net.PacketConn, net.Listener, netip.AddrPort, error) {
	_, port, err := net.SplitHostPort(addr)
	if err != nil {
		return nil, nil, netip.AddrPort{}, err
	}
	for attempt := 1; ; attempt++ {
		pc, ap, err := ListenUDP(addr)
		if err != nil {
			return nil, nil, netip.AddrPort{}, err
		}
		ln, err := net.Listen("tcp", ap.String())
		if err == nil {
			return pc, ln, ap, nil
		}
		pc.Close() //ldp:nolint errcheck — abandoning this port; the TCP bind error decides what happens next
		if port != "0" || attempt == 8 || !errors.Is(err, syscall.EADDRINUSE) {
			return nil, nil, netip.AddrPort{}, err
		}
	}
}

// ListenTCP binds a TCP listener and reports the bound address.
func ListenTCP(addr string) (net.Listener, netip.AddrPort, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, netip.AddrPort{}, err
	}
	return ln, AddrPortOf(ln.Addr()), nil
}
