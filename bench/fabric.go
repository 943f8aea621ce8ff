package main

import (
	"context"
	"net"
	"net/netip"
	"sync"
	"time"

	"ldplayer/internal/transport"
)

// echoFabric is a kernel-free stand-in for the network, used only for
// the direct layer measurements that need a syscall-free ceiling: every
// query written to it comes back as its own response (QR set), one
// channel hand-off per endpoint send or per datagram batch. It
// implements transport.PacketDialer, so both the per-source Conn path
// and the batched fast path of the replay engine run over it.
type echoFabric struct{}

var echoAddr = netip.MustParseAddrPort("127.0.0.1:53")

func (echoFabric) Dial(context.Context, transport.Proto, netip.AddrPort) (transport.Endpoint, error) {
	// The queue spans a Conn's whole ID window, so a send never blocks
	// (it runs under the Conn's mutex) and never drops.
	return &echoEndpoint{ch: make(chan *[]byte, 1<<16), done: make(chan struct{})}, nil
}

func (echoFabric) ListenPacketConn() (net.PacketConn, error) {
	// 128 batches in flight is more than a querier ever has unread.
	return &echoPacketConn{ch: make(chan *[]transport.Datagram, 128), done: make(chan struct{})}, nil
}

var echoMsgPool = sync.Pool{New: func() any { b := make([]byte, 0, 512); return &b }}

type echoEndpoint struct {
	ch   chan *[]byte
	done chan struct{}
	once sync.Once
}

func (e *echoEndpoint) Send(msg []byte) error {
	bp := echoMsgPool.Get().(*[]byte)
	*bp = append((*bp)[:0], msg...)
	if len(*bp) > 2 {
		(*bp)[2] |= 0x80
	}
	select {
	case e.ch <- bp:
		return nil
	case <-e.done:
		return transport.ErrClosed
	}
}

func (e *echoEndpoint) Recv(buf []byte) (int, error) {
	select {
	case bp := <-e.ch:
		n := copy(buf, *bp)
		echoMsgPool.Put(bp)
		return n, nil
	case <-e.done:
		return 0, transport.ErrClosed
	}
}

func (e *echoEndpoint) SetDeadline(time.Time) error { return nil }
func (e *echoEndpoint) Close() error                { e.once.Do(func() { close(e.done) }); return nil }
func (e *echoEndpoint) LocalAddr() netip.AddrPort   { return netip.AddrPort{} }
func (e *echoEndpoint) RemoteAddr() netip.AddrPort  { return echoAddr }

// echoPacketConn reflects whole batches: WriteBatch copies the
// datagrams into a pooled batch and queues it, ReadBatch hands it back.
type echoPacketConn struct {
	ch   chan *[]transport.Datagram
	done chan struct{}
	once sync.Once
}

func (c *echoPacketConn) WriteBatch(ms []transport.Datagram) (int, error) {
	for off := 0; off < len(ms); off += transport.BatchLen {
		part := ms[off:min(off+transport.BatchLen, len(ms))]
		bp := transport.GetBatch()
		b := *bp
		for i := range part {
			b[i].Buf = append(b[i].Buf[:0], part[i].Buf...)
			if len(b[i].Buf) > 2 {
				b[i].Buf[2] |= 0x80
			}
			b[i].N = len(b[i].Buf)
			b[i].Addr = part[i].Addr
		}
		for i := len(part); i < len(b); i++ {
			b[i].N = 0
		}
		select {
		case c.ch <- bp:
		case <-c.done:
			return off, net.ErrClosed
		}
	}
	return len(ms), nil
}

func (c *echoPacketConn) ReadBatch(ms []transport.Datagram) (int, error) {
	var bp *[]transport.Datagram
	select {
	case bp = <-c.ch:
	case <-c.done:
		return 0, net.ErrClosed
	}
	n := 0
	for _, d := range *bp {
		if d.N == 0 || n == len(ms) {
			break
		}
		ms[n].N = copy(ms[n].Buf, d.Buf[:d.N])
		ms[n].Addr = d.Addr
		n++
	}
	transport.PutBatch(bp)
	return n, nil
}

func (c *echoPacketConn) ReadFrom([]byte) (int, net.Addr, error) { return 0, nil, net.ErrClosed }
func (c *echoPacketConn) WriteTo([]byte, net.Addr) (int, error)  { return 0, net.ErrClosed }
func (c *echoPacketConn) Close() error                           { c.once.Do(func() { close(c.done) }); return nil }
func (c *echoPacketConn) LocalAddr() net.Addr                    { return net.UDPAddrFromAddrPort(echoAddr) }
func (c *echoPacketConn) SetDeadline(time.Time) error            { return nil }
func (c *echoPacketConn) SetReadDeadline(time.Time) error        { return nil }
func (c *echoPacketConn) SetWriteDeadline(time.Time) error       { return nil }
