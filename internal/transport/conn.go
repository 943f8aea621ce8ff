package transport

import (
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"ldplayer/internal/dnsmsg"
)

// ConnConfig parameterizes a Conn.
type ConnConfig struct {
	// Dial opens the underlying endpoint; called lazily on first use and
	// again after an idle close or error. Required.
	Dial func() (Endpoint, error)
	// IdleTimeout closes the endpoint this long after its last send;
	// 0 keeps it open until Close (datagram sockets).
	IdleTimeout time.Duration
	// OnResponse delivers a matched response: the caller's token, the
	// query→response latency, and the raw message (valid only during the
	// call — the buffer is pooled).
	OnResponse func(token any, rtt time.Duration, wire []byte)
	// OnResponseMsg, when set, additionally delivers the matched response
	// decoded into a pooled message — m is valid only during the call
	// and must not be retained (Detach first to keep any part of it).
	// A matched response that fails to decode is delivered with
	// m == nil so malformed answers stay countable. When both callbacks
	// are set, OnResponse runs first.
	OnResponseMsg func(token any, rtt time.Duration, m *dnsmsg.Msg)
	// OnDrop reports an in-flight query that can no longer be answered:
	// its endpoint closed (idle timeout, peer close, error) or the Conn
	// itself was closed. Every token passed to Send is handed to exactly
	// one of OnResponse or OnDrop, so loss accounting stays truthful.
	OnDrop func(token any)
}

// pendingQuery tracks one in-flight query.
type pendingQuery struct {
	sentAt time.Time
	token  any
}

// Conn is a reusable query connection with automatic query-ID
// management: Send rewrites each message's ID to a fresh value that is
// not currently in flight, tracks it as pending, and the read loop
// matches responses back by ID. The endpoint is dialed on demand,
// re-dialed after errors, and (for streams) closed after IdleTimeout —
// the paper's §2.6 per-source connection behaviour, shared by every
// protocol instead of re-implemented per socket type.
type Conn struct {
	cfg ConnConfig

	mu      sync.Mutex
	ep      Endpoint
	nextID  uint16
	pending map[uint16]pendingQuery
	idle    *time.Timer
	closed  bool

	// loops tracks live read-loop goroutines so Wait can quiesce
	// callbacks after Close.
	loops sync.WaitGroup

	dials       atomic.Uint64
	idExhausted atomic.Uint64
}

// NewConn creates an idle Conn; the first Send dials.
func NewConn(cfg ConnConfig) *Conn {
	return &Conn{cfg: cfg, pending: make(map[uint16]pendingQuery)}
}

var errShortMsg = errors.New("transport: message shorter than a DNS header ID")

// Send transmits wire (whose first two bytes are replaced by a fresh
// query ID; the caller's slice is not modified) and registers token for
// the response. fresh reports whether this send dialed a new endpoint.
func (c *Conn) Send(wire []byte, token any) (fresh bool, err error) {
	if len(wire) < 2 {
		return false, errShortMsg
	}
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return false, ErrClosed
	}
	if c.ep == nil {
		ep, err := c.cfg.Dial()
		if err != nil {
			c.mu.Unlock()
			return true, err
		}
		c.ep = ep
		if c.dials.Add(1) > 1 {
			obsConnRedials.Inc()
		}
		obsConnDials.Inc()
		fresh = true
		c.loops.Add(1)
		go c.readLoop(ep)
	}
	c.touchLocked()
	id, ok := c.allocIDLocked()
	if !ok {
		c.idExhausted.Add(1)
		obsConnIDExhausted.Inc()
		c.mu.Unlock()
		return fresh, ErrIDSpaceExhausted
	}
	c.pending[id] = pendingQuery{sentAt: time.Now(), token: token}

	// Patch the ID into a pooled scratch copy so concurrent sends of the
	// same trace wire bytes never race.
	bp := GetBuf()
	buf := append((*bp)[:0], wire...)
	buf[0], buf[1] = byte(id>>8), byte(id)
	err = c.ep.Send(buf) //ldp:nolint mutexblock — per-connection send serialization is the framing contract; ID patch + send must be atomic
	PutBuf(bp)
	if err != nil {
		// The endpoint is broken: fail it over and fail out everything
		// else in flight so nothing is silently orphaned.
		delete(c.pending, id)
		dropped := c.detachLocked()
		c.mu.Unlock()
		c.drop(dropped)
		return fresh, err
	}
	c.mu.Unlock()
	return fresh, nil
}

// allocIDLocked hands out the next query ID, skipping IDs that are still
// in flight: a wrapped counter must never silently overwrite a pending
// entry (that would orphan the earlier query's latency sample).
func (c *Conn) allocIDLocked() (uint16, bool) {
	if len(c.pending) >= 1<<16 {
		return 0, false
	}
	for {
		c.nextID++
		if _, busy := c.pending[c.nextID]; !busy {
			return c.nextID, true
		}
	}
}

// touchLocked (re)arms the idle-close timer.
func (c *Conn) touchLocked() {
	if c.cfg.IdleTimeout <= 0 {
		return
	}
	if c.idle != nil {
		c.idle.Stop()
	}
	c.idle = time.AfterFunc(c.cfg.IdleTimeout, c.idleClose)
}

func (c *Conn) idleClose() {
	c.mu.Lock()
	var dropped []any
	if !c.closed && c.ep != nil {
		dropped = c.detachLocked()
	}
	c.mu.Unlock()
	c.drop(dropped)
}

// detachLocked closes and forgets the current endpoint and takes every
// pending token for drop delivery (outside the lock).
func (c *Conn) detachLocked() []any {
	if c.ep != nil {
		c.ep.Close() //ldp:nolint errcheck — detach teardown; pending exchanges already get ErrConnClosed
		c.ep = nil
	}
	if len(c.pending) == 0 {
		return nil
	}
	dropped := make([]any, 0, len(c.pending))
	for id, p := range c.pending {
		dropped = append(dropped, p.token)
		delete(c.pending, id)
	}
	return dropped
}

func (c *Conn) drop(tokens []any) {
	obsConnDrops.Add(uint64(len(tokens)))
	if c.cfg.OnDrop == nil {
		return
	}
	for _, tok := range tokens {
		c.cfg.OnDrop(tok)
	}
}

// readLoop receives on one endpoint until it dies, matching responses to
// pending queries by ID. It holds a pooled buffer (and message) only
// while a response is in hand: an idle stream or vnet source parks in
// RecvPooled with neither.
func (c *Conn) readLoop(ep Endpoint) {
	defer c.loops.Done()
	for {
		bp, n, err := RecvPooled(ep)
		if err != nil {
			// The endpoint closed (idle timer, peer, Close, or error). If
			// it is still current, detach it and fail out its in-flight
			// queries; if not, whoever replaced it already did.
			c.mu.Lock()
			var dropped []any
			if c.ep == ep {
				dropped = c.detachLocked()
			}
			c.mu.Unlock()
			c.drop(dropped)
			return
		}
		c.deliver((*bp)[:n])
		PutBuf(bp)
	}
}

// deliver matches one received message to its pending query and runs
// the response callbacks.
func (c *Conn) deliver(wire []byte) {
	if len(wire) < 2 {
		return
	}
	id := uint16(wire[0])<<8 | uint16(wire[1])
	c.mu.Lock()
	p, ok := c.pending[id]
	if ok {
		delete(c.pending, id)
	}
	c.mu.Unlock()
	if !ok {
		return
	}
	obsConnResponses.Inc()
	rtt := time.Since(p.sentAt)
	if c.cfg.OnResponse != nil {
		c.cfg.OnResponse(p.token, rtt, wire)
	}
	if c.cfg.OnResponseMsg != nil {
		m := dnsmsg.GetMsg()
		if err := m.UnpackBuffer(wire); err != nil {
			c.cfg.OnResponseMsg(p.token, rtt, nil)
		} else {
			c.cfg.OnResponseMsg(p.token, rtt, m)
		}
		dnsmsg.PutMsg(m)
	}
}

// Wait blocks until every read-loop goroutine this Conn ever spawned has
// returned. After Close()+Wait() no OnResponse/OnResponseMsg/OnDrop
// callback can still be executing, so callers may read result storage
// those callbacks write without synchronization. Must not be called from
// inside a callback (the read loop would be waiting on itself).
func (c *Conn) Wait() { c.loops.Wait() }

// Pending reports the number of in-flight queries.
func (c *Conn) Pending() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.pending)
}

// Dials reports how many endpoints this Conn has opened.
func (c *Conn) Dials() uint64 { return c.dials.Load() }

// IDExhausted counts sends refused because all 65536 IDs were in flight.
func (c *Conn) IDExhausted() uint64 { return c.idExhausted.Load() }

// Close shuts the Conn down; in-flight queries are failed out through
// OnDrop. Further Sends return ErrClosed.
func (c *Conn) Close() {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return
	}
	c.closed = true
	if c.idle != nil {
		c.idle.Stop()
	}
	dropped := c.detachLocked()
	c.mu.Unlock()
	c.drop(dropped)
}
