package transport

import (
	"context"
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
	ports    map[uint16]chan vnet.Packet
	nextPort uint16
	closed   bool
}

// Delivery-queue depths. vnet delivery is synchronous, so each port
// buffers packets in its channel; overflow drops the packet, like a full
// kernel socket buffer. Listeners face unbounded senders and get a queue
// comparable to a real UDP receive buffer; dialed endpoints only ever
// hold their own in-flight queries and get a smaller one (it is
// allocated per dial, on the exchange hot path).
const (
	vnetListenDepth = 1024
	vnetDialDepth   = 256
)

// NewVNetHost attaches a host at addr. Close detaches it.
func NewVNetHost(n *vnet.Network, addr netip.Addr) *VNetHost {
	h := &VNetHost{net: n, addr: addr, ports: make(map[uint16]chan vnet.Packet), nextPort: 20000}
	n.Attach(addr, h.deliver)
	return h
}

// Addr reports the host's address on the fabric.
func (h *VNetHost) Addr() netip.Addr { return h.addr }

func (h *VNetHost) deliver(pkt vnet.Packet) {
	h.mu.Lock()
	ch := h.ports[pkt.Dst.Port()]
	h.mu.Unlock()
	if ch != nil {
		select {
		case ch <- pkt:
		default: // receiver queue full: drop, as a real socket would
		}
	}
}

// Close detaches the host from the network and closes every endpoint's
// delivery queue.
func (h *VNetHost) Close() {
	h.net.Detach(h.addr)
	h.mu.Lock()
	h.closed = true
	h.ports = make(map[uint16]chan vnet.Packet)
	h.mu.Unlock()
}

// bind reserves a local port (0 = pseudo-ephemeral) and installs its
// delivery queue.
func (h *VNetHost) bind(port uint16, depth int) (uint16, chan vnet.Packet, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.closed {
		return 0, nil, ErrClosed
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
			return 0, nil, fmt.Errorf("transport: vnet host %s: no free ports", h.addr)
		}
	} else if _, busy := h.ports[port]; busy {
		return 0, nil, fmt.Errorf("transport: vnet host %s: port %d in use", h.addr, port)
	}
	ch := make(chan vnet.Packet, depth)
	h.ports[port] = ch
	return port, ch, nil
}

func (h *VNetHost) release(port uint16) {
	h.mu.Lock()
	delete(h.ports, port)
	h.mu.Unlock()
}

// Dial implements Dialer. The vnet fabric is a datagram network, so only
// UDP endpoints exist; stream protocols report an error the same way a
// kernel without a TCP stack would.
func (h *VNetHost) Dial(_ context.Context, proto Proto, server netip.AddrPort) (Endpoint, error) {
	if proto != UDP {
		return nil, fmt.Errorf("transport: vnet fabric carries datagrams only, not %s", proto)
	}
	port, ch, err := h.bind(0, vnetDialDepth)
	if err != nil {
		return nil, err
	}
	return &vnetEndpoint{
		host:   h,
		local:  netip.AddrPortFrom(h.addr, port),
		remote: server,
		recv:   ch,
		done:   make(chan struct{}),
	}, nil
}

// vnetEndpoint is one connected datagram channel on the fabric.
type vnetEndpoint struct {
	host   *VNetHost
	local  netip.AddrPort
	remote netip.AddrPort
	recv   chan vnet.Packet
	done   chan struct{}

	mu        sync.Mutex
	deadline  time.Time
	closeOnce sync.Once
}

func (e *vnetEndpoint) Send(msg []byte) error {
	select {
	case <-e.done:
		return ErrClosed
	default:
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
	var timeout <-chan time.Time
	if !dl.IsZero() {
		wait := time.Until(dl)
		if wait <= 0 {
			return nil, ErrTimeout
		}
		t := time.NewTimer(wait)
		defer t.Stop()
		timeout = t.C
	}
	select {
	case pkt := <-e.recv:
		return pkt.Payload, nil
	case <-e.done:
		return nil, ErrClosed
	case <-timeout:
		return nil, ErrTimeout
	}
}

func (e *vnetEndpoint) SetDeadline(t time.Time) error {
	e.mu.Lock()
	e.deadline = t
	e.mu.Unlock()
	return nil
}

func (e *vnetEndpoint) Close() error {
	e.closeOnce.Do(func() {
		e.host.release(e.local.Port())
		close(e.done)
	})
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
	recv  chan vnet.Packet
	done  chan struct{}

	mu        sync.Mutex
	deadline  time.Time
	bumped    chan struct{} // closed when the deadline changes
	closeOnce sync.Once
}

// ListenPacketConn implements PacketDialer: an unconnected datagram
// socket on an ephemeral fabric port, for consumers (the replay fast
// path) that want PacketConn semantics rather than a dialed Endpoint.
func (h *VNetHost) ListenPacketConn() (net.PacketConn, error) {
	return h.ListenPacket(0)
}

// ListenPacket binds a datagram listener on the host (port 0 picks one).
func (h *VNetHost) ListenPacket(port uint16) (*VNetPacketConn, error) {
	port, ch, err := h.bind(port, vnetListenDepth)
	if err != nil {
		return nil, err
	}
	return &VNetPacketConn{
		host:   h,
		local:  netip.AddrPortFrom(h.addr, port),
		recv:   ch,
		done:   make(chan struct{}),
		bumped: make(chan struct{}),
	}, nil
}

// ReadFrom implements net.PacketConn.
func (c *VNetPacketConn) ReadFrom(p []byte) (int, net.Addr, error) {
	for {
		c.mu.Lock()
		dl := c.deadline
		bumped := c.bumped
		c.mu.Unlock()
		var timeout <-chan time.Time
		var timer *time.Timer
		if !dl.IsZero() {
			wait := time.Until(dl)
			if wait <= 0 {
				return 0, nil, ErrTimeout
			}
			timer = time.NewTimer(wait)
			timeout = timer.C
		}
		select {
		case pkt := <-c.recv:
			if timer != nil {
				timer.Stop()
			}
			return copy(p, pkt.Payload), vnetAddr(pkt.Src), nil
		case <-c.done:
			if timer != nil {
				timer.Stop()
			}
			return 0, nil, ErrClosed
		case <-bumped:
			if timer != nil {
				timer.Stop()
			}
			continue // deadline moved; recompute
		case <-timeout:
			return 0, nil, ErrTimeout
		}
	}
}

// WriteTo implements net.PacketConn.
func (c *VNetPacketConn) WriteTo(p []byte, addr net.Addr) (int, error) {
	select {
	case <-c.done:
		return 0, ErrClosed
	default:
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
	c.closeOnce.Do(func() {
		c.host.release(c.local.Port())
		close(c.done)
	})
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
