package replay

import (
	"context"
	"fmt"
	"net"
	"net/netip"
	"sync"
	"time"

	"ldplayer/internal/transport"
)

// echoFabric is the kernel-free packet fabric behind TestReplaySpeedup
// and its benchmark pair. It charges both planes one hand-off per
// syscall-equivalent — a channel operation per dialed-endpoint Send
// (the per-packet plane) or per datagram batch (the sendmmsg-shaped
// plane) — and reflects every query as a response with the QR bit set.
// Loopback sockets can't host this comparison: the kernel's
// per-datagram delivery cost is identical in both planes and large
// enough to cap the observable ratio at ~2× regardless of how much
// engine overhead batching removes (see bench_test.go).
//
// Everything is pooled: the fabric adds zero steady-state allocations
// to either plane.
type echoFabric struct {
	// refuse makes each packet socket refuse its first refuse datagrams
	// the way a kernel refuses one inside sendmmsg: WriteBatch counts
	// them out of its result and nothing is delivered.
	refuse int
	// truncate, if positive, cuts every reflected datagram to at most
	// that many bytes: a server answering with less than a DNS header.
	truncate int
	// silent makes packet sockets accept every datagram and answer none.
	silent bool
}

// Dial implements transport.Dialer for the reference plane: a
// per-source connected endpoint that echoes each Send into its own
// receive queue.
func (echoFabric) Dial(_ context.Context, proto transport.Proto, _ netip.AddrPort) (transport.Endpoint, error) {
	if proto != transport.UDP {
		return nil, fmt.Errorf("replay: echo fabric carries datagrams only, not %s", proto)
	}
	// The queue spans the Conn's whole 65536-ID window: the Conn stops
	// sending (ErrIDSpaceExhausted) before the queue can fill, so the
	// endpoint is lossless without ever blocking — blocking would
	// deadlock against the conn mutex Conn.Send holds across Send.
	return &echoEndpoint{ch: make(chan *echoBuf, 1<<16), done: make(chan struct{})}, nil
}

// ListenPacketConn implements transport.PacketDialer for the batched
// plane: an unconnected socket whose native batch path moves one
// response batch per hand-off.
func (f echoFabric) ListenPacketConn() (net.PacketConn, error) {
	return &echoPacketConn{ch: make(chan echoBatch, 128), done: make(chan struct{}), refuse: f.refuse, truncate: f.truncate, silent: f.silent}, nil
}

type echoBuf struct {
	b [2048]byte
	n int
}

var echoBufPool = sync.Pool{New: func() any { return new(echoBuf) }}

// echoEndpoint mirrors vnetEndpoint's shape minus the shared network:
// Send copies the message into a pooled buffer (as a real fabric or
// kernel would), flips QR, and queues it; a full queue drops the
// packet like a full socket buffer.
type echoEndpoint struct {
	ch   chan *echoBuf
	done chan struct{}

	mu        sync.Mutex
	deadline  time.Time
	closeOnce sync.Once
}

func (e *echoEndpoint) Send(msg []byte) error {
	select {
	case <-e.done:
		return transport.ErrClosed
	default:
	}
	p := echoBufPool.Get().(*echoBuf)
	p.n = copy(p.b[:], msg)
	if p.n >= 3 {
		p.b[2] |= 0x80 // QR: reflect as a response
	}
	// Never blocks: the queue outspans the sender's in-flight window
	// (see Dial), and a lossy fabric would turn reader lag into
	// response drops and leave the benchmark's drain timeout — not the
	// data plane — in the measurement.
	select {
	case e.ch <- p:
	default:
		echoBufPool.Put(p) // unreachable by construction; drop over deadlock
	}
	return nil
}

func (e *echoEndpoint) Recv(buf []byte) (int, error) {
	e.mu.Lock()
	dl := e.deadline
	e.mu.Unlock()
	var timeout <-chan time.Time
	if !dl.IsZero() {
		wait := time.Until(dl)
		if wait <= 0 {
			return 0, transport.ErrTimeout
		}
		t := time.NewTimer(wait)
		defer t.Stop()
		timeout = t.C
	}
	select {
	case p := <-e.ch:
		n := copy(buf, p.b[:p.n])
		echoBufPool.Put(p)
		return n, nil
	case <-e.done:
		return 0, transport.ErrClosed
	case <-timeout:
		return 0, transport.ErrTimeout
	}
}

func (e *echoEndpoint) SetDeadline(t time.Time) error {
	e.mu.Lock()
	e.deadline = t
	e.mu.Unlock()
	return nil
}

func (e *echoEndpoint) Close() error {
	e.closeOnce.Do(func() { close(e.done) })
	return nil
}

func (e *echoEndpoint) LocalAddr() netip.AddrPort  { return netip.AddrPort{} }
func (e *echoEndpoint) RemoteAddr() netip.AddrPort { return netip.AddrPort{} }

// echoBatch carries one reflected batch: a pooled transport batch plus
// how many of its slots are live.
type echoBatch struct {
	b *[]transport.Datagram
	n int
}

// echoPacketConn is the batched plane's socket: a net.PacketConn whose
// transport.BatchConn methods move whole batches per channel operation,
// the in-process analogue of sendmmsg/recvmmsg.
type echoPacketConn struct {
	ch        chan echoBatch
	done      chan struct{}
	closeOnce sync.Once
	refuse    int // datagrams still to refuse; writer goroutine only
	truncate  int
	silent    bool
}

// WriteBatch reflects every datagram into one queued response batch —
// a single hand-off for the whole batch, like one sendmmsg.
func (c *echoPacketConn) WriteBatch(ms []transport.Datagram) (int, error) {
	select {
	case <-c.done:
		return 0, transport.ErrClosed
	default:
	}
	refused := min(c.refuse, len(ms))
	c.refuse -= refused
	if c.silent {
		return len(ms) - refused, nil
	}
	out := transport.GetBatch()
	ob := *out
	n := 0
	for i := refused; i < len(ms); i++ {
		if n == len(ob) {
			break
		}
		d := &ob[n]
		d.Buf = append(d.Buf[:0], ms[i].Buf...)
		if len(d.Buf) >= 3 {
			d.Buf[2] |= 0x80
		}
		if c.truncate > 0 && len(d.Buf) > c.truncate {
			d.Buf = d.Buf[:c.truncate]
		}
		d.N = len(d.Buf)
		d.Addr = ms[i].Addr
		n++
	}
	// Lossless with backpressure, like the endpoint side: every staged
	// query gets its response, so the drain at run end is immediate.
	select {
	case c.ch <- echoBatch{b: out, n: n}:
		return len(ms) - refused, nil
	case <-c.done:
		transport.PutBatch(out)
		return 0, transport.ErrClosed
	}
}

// ReadBatch delivers the next reflected batch into ms.
func (c *echoPacketConn) ReadBatch(ms []transport.Datagram) (int, error) {
	select {
	case eb := <-c.ch:
		src := *eb.b
		n := 0
		for i := 0; i < eb.n && n < len(ms); i++ {
			ms[n].N = copy(ms[n].Buf, src[i].Buf[:src[i].N])
			ms[n].Addr = src[i].Addr
			n++
		}
		transport.PutBatch(eb.b)
		return n, nil
	case <-c.done:
		return 0, transport.ErrClosed
	}
}

// The scalar PacketConn methods exist for interface completeness;
// UDPBatch routes through the BatchConn pair above.
func (c *echoPacketConn) WriteTo(p []byte, addr net.Addr) (int, error) {
	var ms [1]transport.Datagram
	ms[0].Buf = p
	ms[0].Addr = transport.AddrPortOf(addr)
	if _, err := c.WriteBatch(ms[:]); err != nil {
		return 0, err
	}
	return len(p), nil
}

func (c *echoPacketConn) ReadFrom(p []byte) (int, net.Addr, error) {
	var ms [1]transport.Datagram
	ms[0].Buf = make([]byte, len(p))
	n, err := c.ReadBatch(ms[:])
	if err != nil {
		return 0, nil, err
	}
	if n == 0 {
		return 0, nil, nil
	}
	return copy(p, ms[0].Buf[:ms[0].N]), net.UDPAddrFromAddrPort(ms[0].Addr), nil
}

func (c *echoPacketConn) Close() error {
	c.closeOnce.Do(func() { close(c.done) })
	return nil
}

func (c *echoPacketConn) LocalAddr() net.Addr              { return net.UDPAddrFromAddrPort(netip.AddrPort{}) }
func (c *echoPacketConn) SetDeadline(time.Time) error      { return nil }
func (c *echoPacketConn) SetReadDeadline(time.Time) error  { return nil }
func (c *echoPacketConn) SetWriteDeadline(time.Time) error { return nil }
