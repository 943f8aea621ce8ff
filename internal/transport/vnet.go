package transport

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/netip"
	"sync"
	"time"

	"ldplayer/internal/vnet"
)

// VNetHost is one attachment point on the virtual network: it owns an
// address, demuxes incoming packets to per-port endpoints, and acts as a
// Dialer so any transport consumer (resolver, exchanger, dig) runs over
// the simulated fabric unchanged. It is the transport-layer equivalent
// of binding sockets on one host.
type VNetHost struct {
	net  *vnet.Network
	addr netip.Addr

	mu       sync.Mutex
	ports    map[uint16]*portQueue
	nextPort uint16
	closed   bool
}

// Delivery-queue depths. vnet delivery is synchronous, so each port
// buffers packets in a portQueue; overflow drops the packet, like a full
// kernel socket buffer. Listeners face unbounded senders and get a queue
// comparable to a real UDP receive buffer; dialed endpoints only ever
// hold their own in-flight queries and get a smaller one. A queue's
// storage grows with the packets actually queued, never with its depth:
// a dial is on the exchange hot path and usually holds one reply.
const (
	vnetListenDepth = 1024
	vnetDialDepth   = 256
)

// NewVNetHost attaches a host at addr. Close detaches it.
func NewVNetHost(n *vnet.Network, addr netip.Addr) *VNetHost {
	h := &VNetHost{net: n, addr: addr, ports: make(map[uint16]*portQueue), nextPort: 20000}
	n.Attach(addr, h.deliver)
	return h
}

// Addr reports the host's address on the fabric.
func (h *VNetHost) Addr() netip.Addr { return h.addr }

func (h *VNetHost) deliver(pkt vnet.Packet) {
	h.mu.Lock()
	q := h.ports[pkt.Dst.Port()]
	h.mu.Unlock()
	if q != nil {
		q.push(pkt)
	}
}

// Close detaches the host from the network and closes every endpoint's
// delivery queue: parked receivers return ErrClosed.
func (h *VNetHost) Close() {
	h.net.Detach(h.addr)
	h.mu.Lock()
	defer h.mu.Unlock()
	h.closed = true
	for _, q := range h.ports {
		q.close()
	}
	clear(h.ports)
}

// bind reserves a local port (0 = pseudo-ephemeral) for queue q.
func (h *VNetHost) bind(port uint16, q *portQueue) (uint16, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.closed {
		return 0, ErrClosed
	}
	if port == 0 {
		for range [65536]struct{}{} {
			h.nextPort++
			if h.nextPort < 20000 {
				h.nextPort = 20000
			}
			if _, busy := h.ports[h.nextPort]; !busy {
				port = h.nextPort
				break
			}
		}
		if port == 0 {
			return 0, fmt.Errorf("transport: vnet host %s: no free ports", h.addr)
		}
	} else if _, busy := h.ports[port]; busy {
		return 0, fmt.Errorf("transport: vnet host %s: port %d in use", h.addr, port)
	}
	h.ports[port] = q
	return port, nil
}

// release closes q and frees its port. Only the queue bound there is
// removed, so a repeated release never unbinds a later owner.
func (h *VNetHost) release(port uint16, q *portQueue) {
	q.close()
	h.mu.Lock()
	if h.ports[port] == q {
		delete(h.ports, port)
	}
	h.mu.Unlock()
}

// portQueue is one bound port's delivery queue: FIFO, at most depth
// packets, and packets beyond that are dropped. pkts[head:] are the
// queued packets; the backing array grows with use and is compacted,
// never sized up front. wake holds at most one pending signal. A
// receiver re-checks the queue after every wake-up, and a pop that
// leaves packets behind passes the signal on, so receivers sharing a
// queue (server shards on one PacketConn) never strand a packet. A
// closed queue is never reopened, so nothing delivered to a closed
// endpoint can reach a later one on the same port.
type portQueue struct {
	depth int
	wake  chan struct{}

	mu     sync.Mutex
	pkts   []vnet.Packet
	head   int
	closed bool
}

func (q *portQueue) init(depth int) {
	q.depth = depth
	q.wake = make(chan struct{}, 1)
}

// push queues pkt, or drops it when the queue is full or closed.
func (q *portQueue) push(pkt vnet.Packet) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed || len(q.pkts)-q.head >= q.depth {
		return
	}
	if len(q.pkts) == cap(q.pkts) && q.head > 0 {
		n := copy(q.pkts, q.pkts[q.head:])
		clear(q.pkts[n:])
		q.pkts, q.head = q.pkts[:n], 0
	}
	q.pkts = append(q.pkts, pkt)
	q.signal()
}

// signal leaves a wake-up pending unless one already is (q.mu held,
// queue open).
func (q *portQueue) signal() {
	select {
	case q.wake <- struct{}{}:
	default:
	}
}

// pop takes the oldest queued packet; ok is false when there is none.
func (q *portQueue) pop() (pkt vnet.Packet, ok bool, err error) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		return vnet.Packet{}, false, ErrClosed
	}
	if q.head == len(q.pkts) {
		return vnet.Packet{}, false, nil
	}
	pkt = q.pkts[q.head]
	q.pkts[q.head] = vnet.Packet{} // the queue no longer holds the payload
	q.head++
	if q.head == len(q.pkts) {
		q.pkts, q.head = q.pkts[:0], 0
	} else {
		q.signal()
	}
	return pkt, true, nil
}

// close drops every queued packet and wakes all receivers for good.
func (q *portQueue) close() {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		return
	}
	q.closed = true
	q.pkts, q.head = nil, 0
	close(q.wake)
}

func (q *portQueue) isClosed() bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.closed
}

// errBumped reports that recv's bump channel fired.
var errBumped = errors.New("transport: vnet deadline moved")

// recv waits for the next packet until the queue closes (ErrClosed),
// the deadline dl passes (ErrTimeout; the zero time never does) or bump
// is closed (errBumped; nil never is). As on a socket, a deadline that
// has already passed fails the read even when a packet is queued.
func (q *portQueue) recv(dl time.Time, bump <-chan struct{}) (vnet.Packet, error) {
	var wait time.Duration
	if !dl.IsZero() {
		if wait = time.Until(dl); wait <= 0 {
			return vnet.Packet{}, ErrTimeout
		}
	}
	// Delivery is synchronous, so a reply is usually queued before its
	// receiver asks: look first, and arm a timer only to wait.
	if pkt, ok, err := q.pop(); ok || err != nil {
		return pkt, err
	}
	var timeout <-chan time.Time
	if wait > 0 {
		t := time.NewTimer(wait)
		defer t.Stop()
		timeout = t.C
	}
	for {
		select {
		case <-q.wake:
		case <-timeout:
			return vnet.Packet{}, ErrTimeout
		case <-bump:
			return vnet.Packet{}, errBumped
		}
		if pkt, ok, err := q.pop(); ok || err != nil {
			return pkt, err
		}
	}
}

// Dial implements Dialer. The vnet fabric is a datagram network, so only
// UDP endpoints exist; stream protocols report an error the same way a
// kernel without a TCP stack would.
func (h *VNetHost) Dial(_ context.Context, proto Proto, server netip.AddrPort) (Endpoint, error) {
	if proto != UDP {
		return nil, fmt.Errorf("transport: vnet fabric carries datagrams only, not %s", proto)
	}
	e := &vnetEndpoint{host: h, remote: server}
	e.q.init(vnetDialDepth)
	port, err := h.bind(0, &e.q)
	if err != nil {
		return nil, err
	}
	e.local = netip.AddrPortFrom(h.addr, port)
	return e, nil
}

// vnetEndpoint is one connected datagram channel on the fabric.
type vnetEndpoint struct {
	host   *VNetHost
	local  netip.AddrPort
	remote netip.AddrPort
	q      portQueue

	mu       sync.Mutex
	deadline time.Time
}

func (e *vnetEndpoint) Send(msg []byte) error {
	if e.q.isClosed() {
		return ErrClosed
	}
	// Delivery is synchronous; handlers may retain the payload, so hand
	// the fabric its own copy.
	payload := make([]byte, len(msg))
	copy(payload, msg)
	return e.host.net.Send(vnet.Packet{Src: e.local, Dst: e.remote, Payload: payload})
}

func (e *vnetEndpoint) Recv(buf []byte) (int, error) {
	payload, err := e.next()
	if err != nil {
		return 0, err
	}
	return copy(buf, payload), nil
}

func (e *vnetEndpoint) RecvPooled() (*[]byte, int, error) {
	payload, err := e.next()
	if err != nil {
		return nil, 0, err
	}
	bp := GetBuf()
	return bp, copy(*bp, payload), nil
}

// next waits for the next delivered payload, the deadline or Close.
func (e *vnetEndpoint) next() ([]byte, error) {
	e.mu.Lock()
	dl := e.deadline
	e.mu.Unlock()
	pkt, err := e.q.recv(dl, nil)
	return pkt.Payload, err
}

func (e *vnetEndpoint) SetDeadline(t time.Time) error {
	e.mu.Lock()
	e.deadline = t
	e.mu.Unlock()
	return nil
}

func (e *vnetEndpoint) Close() error {
	e.host.release(e.local.Port(), &e.q)
	return nil
}

func (e *vnetEndpoint) LocalAddr() netip.AddrPort  { return e.local }
func (e *vnetEndpoint) RemoteAddr() netip.AddrPort { return e.remote }

// vnetAddr lets vnet endpoints travel through net.Addr-shaped APIs.
type vnetAddr netip.AddrPort

func (a vnetAddr) Network() string { return "vnet" }
func (a vnetAddr) String() string  { return netip.AddrPort(a).String() }

// VNetPacketConn is a net.PacketConn over the fabric, so server.ServeUDP
// (or any PacketConn consumer) serves simulated clients without change —
// the interchangeability the paper's testbed achieved with TUN devices.
type VNetPacketConn struct {
	host  *VNetHost
	local netip.AddrPort
	q     portQueue

	mu       sync.Mutex
	deadline time.Time
	bumped   chan struct{} // closed when the deadline changes
}

// ListenPacketConn implements PacketDialer: an unconnected datagram
// socket on an ephemeral fabric port, for consumers (the replay fast
// path) that want PacketConn semantics rather than a dialed Endpoint.
func (h *VNetHost) ListenPacketConn() (net.PacketConn, error) {
	return h.ListenPacket(0)
}

// ListenPacket binds a datagram listener on the host (port 0 picks one).
func (h *VNetHost) ListenPacket(port uint16) (*VNetPacketConn, error) {
	c := &VNetPacketConn{host: h, bumped: make(chan struct{})}
	c.q.init(vnetListenDepth)
	port, err := h.bind(port, &c.q)
	if err != nil {
		return nil, err
	}
	c.local = netip.AddrPortFrom(h.addr, port)
	return c, nil
}

// ReadFrom implements net.PacketConn.
func (c *VNetPacketConn) ReadFrom(p []byte) (int, net.Addr, error) {
	for {
		c.mu.Lock()
		dl, bumped := c.deadline, c.bumped
		c.mu.Unlock()
		pkt, err := c.q.recv(dl, bumped)
		if err == errBumped {
			continue // deadline moved; recompute
		}
		if err != nil {
			return 0, nil, err
		}
		return copy(p, pkt.Payload), vnetAddr(pkt.Src), nil
	}
}

// WriteTo implements net.PacketConn.
func (c *VNetPacketConn) WriteTo(p []byte, addr net.Addr) (int, error) {
	if c.q.isClosed() {
		return 0, ErrClosed
	}
	dst := AddrPortOf(addr)
	if !dst.IsValid() {
		return 0, fmt.Errorf("transport: vnet write to unusable address %v", addr)
	}
	payload := make([]byte, len(p))
	copy(payload, p)
	if err := c.host.net.Send(vnet.Packet{Src: c.local, Dst: dst, Payload: payload}); err != nil {
		return 0, err
	}
	return len(p), nil
}

// Close implements net.PacketConn.
func (c *VNetPacketConn) Close() error {
	c.host.release(c.local.Port(), &c.q)
	return nil
}

// LocalAddr implements net.PacketConn.
func (c *VNetPacketConn) LocalAddr() net.Addr { return vnetAddr(c.local) }

// AddrPort reports the bound fabric address.
func (c *VNetPacketConn) AddrPort() netip.AddrPort { return c.local }

// SetDeadline implements net.PacketConn (write side never blocks).
func (c *VNetPacketConn) SetDeadline(t time.Time) error { return c.SetReadDeadline(t) }

// SetReadDeadline implements net.PacketConn; it wakes blocked readers so
// the server's shutdown idiom (SetReadDeadline(now)) works.
func (c *VNetPacketConn) SetReadDeadline(t time.Time) error {
	c.mu.Lock()
	c.deadline = t
	close(c.bumped)
	c.bumped = make(chan struct{})
	c.mu.Unlock()
	return nil
}

// SetWriteDeadline implements net.PacketConn; vnet writes are synchronous.
func (c *VNetPacketConn) SetWriteDeadline(time.Time) error { return nil }
