package main

import (
	"context"
	"encoding/json"
	"net"
	"net/netip"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"ldplayer/internal/trace"
	"ldplayer/internal/transport"
)

// The traced pass measures the layers from outside, at seams the
// program already exposes: the trace.Reader handed to Engine.Run, the
// transport.Dialer / PacketDialer in replay.Config, and the
// net.PacketConn / net.Listener handed to the server. Nothing inside
// the program is stamped.
//
// One query in sampleEvery is marked at hand-out by setting the
// reserved Z bit of its DNS header. The engine copies the wire and
// rewrites the ID before it reaches the dialer seam; there the mark
// identifies the query (matched to its hand-out by its bytes after the
// ID, oldest first), is cleared again so the server never sees it, and
// from then on the query is known by client port and DNS ID.

const (
	markByte = 3    // second flags byte
	markBit  = 0x40 // Z, reserved, must be zero on the wire
)

// traced is one sampled query's timeline, as offsets from the first
// hand-out; zero means the seam never saw it.
type traced struct {
	handout, due     time.Duration
	send             time.Duration // reached the client-side socket wrapper
	srvRecv, srvSend time.Duration // server-side socket wrapper: read returned, reply written
	srvBatch         int32         // datagrams the server's read returned with it
	cliRecv          time.Duration // response returned by the client-side socket wrapper
}

// tracer owns the sampled timelines and the counts taken at the seams.
type tracer struct {
	start atomic.Int64 // unix nanos of the first hand-out

	recs []traced
	next atomic.Int32

	mu      sync.Mutex
	waiting map[string][]int32 // marked, handed out, not yet seen at the dialer: wire[2:] -> record indexes, oldest first

	// byKey finds a record from (client port, DNS ID) with one atomic
	// load per datagram: slot = hash(key), value = key<<32 | index+1.
	// A colliding newer sample evicts the older one, whose timeline
	// then stays incomplete and is left out.
	byKey [1 << 16]atomic.Uint64

	batchCalls, batchDgrams atomic.Uint64 // batch reads and writes at wrapped sockets
}

func newTracer(capacity int) *tracer {
	return &tracer{recs: make([]traced, capacity), waiting: map[string][]int32{}}
}

func (t *tracer) since() time.Duration {
	return time.Duration(time.Now().UnixNano() - t.start.Load())
}

// mark implements marker for the feeds.
func (t *tracer) mark(ev *trace.Event, handout, due time.Duration) *trace.Event {
	t.start.CompareAndSwap(0, time.Now().Add(-handout).UnixNano())
	i := t.next.Add(1) - 1
	if int(i) >= len(t.recs) || len(ev.Wire) <= markByte {
		return ev
	}
	t.recs[i] = traced{handout: handout, due: due}
	c := ev.Clone() // the fast workload's events are shared; never mark the original
	c.Wire[markByte] |= markBit
	k := string(c.Wire[2:])
	t.mu.Lock()
	t.waiting[k] = append(t.waiting[k], i)
	t.mu.Unlock()
	return c
}

func slotOf(key uint32) uint32 { return (key * 2654435761) >> 16 }

// sent is called by the client-side wrappers for every outgoing query.
// For a marked one it clears the mark in place (wire is the engine's
// scratch copy), stamps the send and files the record under its key.
func (t *tracer) sent(wire []byte, port uint16) {
	if len(wire) <= markByte || wire[markByte]&markBit == 0 {
		return
	}
	now := t.since()
	k := string(wire[2:])
	wire[markByte] &^= markBit
	t.mu.Lock()
	q := t.waiting[k]
	if len(q) == 0 {
		t.mu.Unlock()
		return
	}
	i := q[0]
	if len(q) == 1 {
		delete(t.waiting, k)
	} else {
		t.waiting[k] = q[1:]
	}
	t.mu.Unlock()
	t.recs[i].send = now
	key := uint32(port)<<16 | uint32(wire[0])<<8 | uint32(wire[1])
	t.byKey[slotOf(key)].Store(uint64(key)<<32 | uint64(i+1))
}

// lookup returns the sampled record a datagram belongs to, or nil.
func (t *tracer) lookup(wire []byte, port uint16) *traced {
	if len(wire) < 2 {
		return nil
	}
	key := uint32(port)<<16 | uint32(wire[0])<<8 | uint32(wire[1])
	v := t.byKey[slotOf(key)].Load()
	if v == 0 || uint32(v>>32) != key {
		return nil
	}
	return &t.recs[uint32(v)-1]
}

func (t *tracer) countBatch(n int) {
	t.batchCalls.Add(1)
	t.batchDgrams.Add(uint64(n))
}

// complete returns the timelines every seam saw.
func (t *tracer) complete() []traced {
	n := min(int(t.next.Load()), len(t.recs))
	var out []traced
	for _, r := range t.recs[:n] {
		if r.send > 0 && r.srvRecv > 0 && r.srvSend > 0 && r.cliRecv > 0 {
			out = append(out, r)
		}
	}
	return out
}

// span is the form timelines are written in at exit: one root span per
// sampled query and one child per stage.
type span struct {
	Query  int    `json:"query"`
	Name   string `json:"name"`
	Parent string `json:"parent,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// stages cuts one timeline into its spans. The root runs from the
// intended send time (or the hand-out, if the feed was late) to the
// response reaching the client seam.
func (r traced) stages() (root span, children []span) {
	begin := max(r.due, r.handout)
	root = span{Name: "query", Start: int64(begin), End: int64(r.cliRecv)}
	children = []span{
		{Name: "replay.pipeline", Parent: "query", Start: int64(begin), End: int64(r.send)},
		{Name: "kernel.transit_out", Parent: "query", Start: int64(r.send), End: int64(r.srvRecv)},
		{Name: "server.service", Parent: "query", Start: int64(r.srvRecv), End: int64(r.srvSend)},
		{Name: "kernel.transit_back", Parent: "query", Start: int64(r.srvSend), End: int64(r.cliRecv)},
	}
	return root, children
}

// writeSpans dumps every complete timeline as JSON lines.
func (t *tracer) writeSpans(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for q, r := range t.complete() {
		root, children := r.stages()
		for _, s := range append([]span{root}, children...) {
			s.Query = q
			if err := enc.Encode(s); err != nil {
				f.Close()
				return err
			}
		}
	}
	return f.Close()
}

// --- client side: transport.Dialer / PacketDialer ---

// benchDialer is the replay.Config.Dialer the benchmark injects: always
// for the fast workload, whose client sockets it binds to chosen ports
// (see probeShardPorts), and on traced passes of the others, to wrap
// what it opens. Timed replay dials one endpoint per emulated source
// through Dial; fast replay asks ListenPacketConn for one shared socket
// per querier. Untraced, both return the plain socket types the engine
// would have opened itself.
type benchDialer struct {
	t     *tracer // nil: untraced
	ports []int   // fast workload: one client port per server shard
	inner transport.NetDialer

	mu   sync.Mutex
	next int
}

func (d *benchDialer) Dial(ctx context.Context, proto transport.Proto, server netip.AddrPort) (transport.Endpoint, error) {
	ep, err := d.inner.Dial(ctx, proto, server)
	if err != nil || d.t == nil {
		return ep, err
	}
	return &tracedEndpoint{Endpoint: ep, t: d.t, port: ep.LocalAddr().Port()}, nil
}

func (d *benchDialer) ListenPacketConn() (net.PacketConn, error) {
	d.mu.Lock()
	i := d.next
	d.next++
	d.mu.Unlock()
	var pc *net.UDPConn
	if i < len(d.ports) && d.ports[i] != 0 {
		// Taken since it was probed: fall through to any port.
		pc, _ = net.ListenUDP("udp4", &net.UDPAddr{Port: d.ports[i]})
	}
	if pc == nil {
		var err error
		if pc, err = net.ListenUDP("udp4", nil); err != nil {
			return nil, err
		}
	}
	if d.t == nil {
		return pc, nil
	}
	return newTracedPacketConn(pc, d.t, false), nil
}

// probeShardPorts finds, for each of the server's SO_REUSEPORT sockets,
// a client port the kernel steers to it. The fast workload has one
// client socket per querier, so two flows in all on two cores; left to
// ephemeral ports, half the runs put both on one shard and answer 7 %
// fewer queries than the other half. The sockets are not being served
// yet, so the probe datagrams are read back here and never reach the
// server. A shard no probe reached keeps port 0 (any port).
func probeShardPorts(shards []net.PacketConn, target netip.AddrPort) []int {
	ports := make([]int, len(shards))
	buf := make([]byte, 16)
	for try, found := 0, 0; try < 32*len(shards) && found < len(shards); try++ {
		c, err := net.ListenUDP("udp4", nil)
		if err != nil {
			break
		}
		port := c.LocalAddr().(*net.UDPAddr).Port
		_, err = c.WriteToUDPAddrPort([]byte{0}, target)
		c.Close()
		if err != nil {
			continue
		}
		hit := -1
		for deadline := time.Now().Add(100 * time.Millisecond); hit < 0 && time.Now().Before(deadline); {
			for i, s := range shards {
				s.SetReadDeadline(time.Now().Add(200 * time.Microsecond))
				if _, _, err := s.ReadFrom(buf); err == nil {
					hit = i
					break
				}
			}
		}
		if hit >= 0 && ports[hit] == 0 {
			ports[hit] = port
			found++
		}
	}
	for _, s := range shards {
		s.SetReadDeadline(time.Time{})
	}
	return ports
}

type tracedEndpoint struct {
	transport.Endpoint
	t    *tracer
	port uint16
}

func (e *tracedEndpoint) Send(msg []byte) error {
	e.t.sent(msg, e.port)
	return e.Endpoint.Send(msg)
}

func (e *tracedEndpoint) Recv(buf []byte) (int, error) {
	n, err := e.Endpoint.Recv(buf)
	if err == nil {
		if r := e.t.lookup(buf[:n], e.port); r != nil {
			r.cliRecv = e.t.since()
		}
	}
	return n, err
}

// --- both sides: a UDP socket that keeps its batch path ---

// tracedPacketConn wraps a real UDP socket. It implements
// transport.BatchConn, so a UDPBatch built over it (by a server shard
// or the fast sender) still moves whole batches through
// recvmmsg/sendmmsg on the socket underneath. The reading and the
// writing goroutine each get their own inner UDPBatch, which is
// single-owner.
type tracedPacketConn struct {
	net.PacketConn
	t      *tracer
	server bool // server side: reads are queries, writes are replies
	port   uint16
	rb, wb *transport.UDPBatch
}

func newTracedPacketConn(pc net.PacketConn, t *tracer, server bool) *tracedPacketConn {
	return &tracedPacketConn{
		PacketConn: pc, t: t, server: server,
		port: transport.AddrPortOf(pc.LocalAddr()).Port(),
		rb:   transport.NewUDPBatch(pc), wb: transport.NewUDPBatch(pc),
	}
}

func (c *tracedPacketConn) ReadBatch(ms []transport.Datagram) (int, error) {
	n, err := c.rb.ReadBatch(ms)
	if n > 0 {
		now := c.t.since()
		c.t.countBatch(n)
		for i := range ms[:n] {
			c.read(ms[i].Buf[:ms[i].N], ms[i].Addr.Port(), now, n)
		}
	}
	return n, err
}

func (c *tracedPacketConn) WriteBatch(ms []transport.Datagram) (int, error) {
	now := c.t.since()
	c.t.countBatch(len(ms))
	for i := range ms {
		c.wrote(ms[i].Buf, ms[i].Addr.Port(), now)
	}
	return c.wb.WriteBatch(ms)
}

// ReadFrom and WriteTo carry the recursive server, which reads and
// writes single datagrams.
func (c *tracedPacketConn) ReadFrom(p []byte) (int, net.Addr, error) {
	n, addr, err := c.PacketConn.ReadFrom(p)
	if err == nil {
		c.read(p[:n], transport.AddrPortOf(addr).Port(), c.t.since(), 1)
	}
	return n, addr, err
}

func (c *tracedPacketConn) WriteTo(p []byte, addr net.Addr) (int, error) {
	c.wrote(p, transport.AddrPortOf(addr).Port(), c.t.since())
	return c.PacketConn.WriteTo(p, addr)
}

func (c *tracedPacketConn) read(wire []byte, peer uint16, now time.Duration, batch int) {
	if c.server {
		if r := c.t.lookup(wire, peer); r != nil {
			r.srvRecv, r.srvBatch = now, int32(batch)
		}
	} else if r := c.t.lookup(wire, c.port); r != nil {
		r.cliRecv = now
	}
}

func (c *tracedPacketConn) wrote(wire []byte, peer uint16, now time.Duration) {
	if c.server {
		if r := c.t.lookup(wire, peer); r != nil {
			r.srvSend = now
		}
	} else {
		c.t.sent(wire, c.port)
	}
}

// --- server side over TCP: the net.Listener handed to ServeTCP ---

type tracedListener struct {
	net.Listener
	t *tracer
}

func (l *tracedListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &tracedStream{Conn: c, t: l.t, peer: transport.AddrPortOf(c.RemoteAddr()).Port()}, nil
}

// tracedStream follows the 2-byte length framing in both directions to
// find each message's ID, whatever read and write sizes the server
// chooses.
type tracedStream struct {
	net.Conn
	t      *tracer
	peer   uint16
	rd, wr frameScanner
}

func (s *tracedStream) Read(p []byte) (int, error) {
	n, err := s.Conn.Read(p)
	if n > 0 {
		now := s.t.since()
		s.rd.scan(p[:n], func(id [2]byte) {
			if r := s.t.lookup(id[:], s.peer); r != nil {
				r.srvRecv, r.srvBatch = now, 1
			}
		})
	}
	return n, err
}

func (s *tracedStream) Write(p []byte) (int, error) {
	now := s.t.since()
	s.wr.scan(p, func(id [2]byte) {
		if r := s.t.lookup(id[:], s.peer); r != nil {
			r.srvSend = now
		}
	})
	return s.Conn.Write(p)
}

// frameScanner walks a stream of length-prefixed DNS messages fed to it
// in arbitrary pieces and reports each message's first two bytes.
type frameScanner struct {
	head [4]byte // length prefix, then ID
	have int     // bytes of head collected for the current message
	skip int     // body bytes of the current message still to pass
}

func (f *frameScanner) scan(p []byte, found func(id [2]byte)) {
	for len(p) > 0 {
		if f.skip > 0 {
			n := min(f.skip, len(p))
			f.skip -= n
			p = p[n:]
			continue
		}
		n := copy(f.head[f.have:], p)
		f.have += n
		p = p[n:]
		if f.have == len(f.head) {
			found([2]byte{f.head[2], f.head[3]})
			// A message shorter than its own ID cannot be framed further.
			f.skip = max(int(f.head[0])<<8|int(f.head[1])-2, 0)
			f.have = 0
		}
	}
}
