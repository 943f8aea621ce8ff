// Package mutextest exercises the mutexblock heuristic: blocking net
// and transport calls under a held sync.Mutex are flagged, including on
// the fall-through path after an early-return unlock; releasing first,
// branches that unlock on every path, goroutines, and suppressed sites
// pass.
package mutextest

import (
	"net"
	"sync"

	"ldplayer/internal/transport"
)

type peer struct {
	mu     sync.Mutex
	conn   net.Conn
	closed bool
	buf    []byte
}

func (p *peer) sendLocked() error {
	p.mu.Lock()
	_, err := p.conn.Write(p.buf) // want "Write may block on I/O while p.mu is held"
	p.mu.Unlock()
	return err
}

func (p *peer) sendUnlocked() error {
	p.mu.Lock()
	buf := append([]byte(nil), p.buf...)
	p.mu.Unlock()
	_, err := p.conn.Write(buf) // lock released first: fine
	return err
}

func (p *peer) earlyReturn() error {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return net.ErrClosed
	}
	_, err := p.conn.Write(p.buf) // want "Write may block on I/O while p.mu is held"
	p.mu.Unlock()
	return err
}

func (p *peer) deferredUnlock() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	c, err := net.Dial("tcp", "127.0.0.1:9") // want "net.Dial may block on I/O while p.mu is held"
	if err != nil {
		return err
	}
	return c.Close()
}

func (p *peer) bothBranchesRelease(flag bool) {
	p.mu.Lock()
	if flag {
		p.mu.Unlock()
	} else {
		p.mu.Unlock()
	}
	_, _ = p.conn.Write(p.buf) // every surviving path released the lock: fine
}

func (p *peer) goroutineIsOwnDiscipline() {
	p.mu.Lock()
	defer p.mu.Unlock()
	go func() {
		_, _ = p.conn.Write(p.buf) // runs later, under its own locking discipline
	}()
}

func (p *peer) suppressed() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	_, err := p.conn.Write(p.buf) //ldp:nolint mutexblock — fixture: serialization is the contract
	return err
}

// conn has the shape of transport.Conn: a read loop beside senders that
// take mu to register their query. Holding mu across the receive parks
// every sender until a reply arrives, which may be never.
type conn struct {
	mu      sync.Mutex
	ep      transport.Endpoint
	batch   *transport.UDPBatch
	pending map[uint16]bool
}

func (c *conn) readLoopLocked() {
	for {
		c.mu.Lock()
		bp, n, err := transport.RecvPooled(c.ep) // want "RecvPooled may block on I/O while c.mu is held"
		if err != nil {
			c.mu.Unlock()
			return
		}
		delete(c.pending, uint16((*bp)[0])<<8|uint16((*bp)[1]))
		c.mu.Unlock()
		transport.PutBuf(bp)
		_ = n
	}
}

func (c *conn) batchLocked(ms []transport.Datagram) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, err := c.batch.WriteBatch(ms); err != nil { // want "WriteBatch may block on I/O while c.mu is held"
		return err
	}
	_, err := c.batch.ReadBatch(ms) // want "ReadBatch may block on I/O while c.mu is held"
	return err
}

func (c *conn) readLoop() {
	for {
		bp, _, err := transport.RecvPooled(c.ep) // receive first, lock only to match: fine
		if err != nil {
			return
		}
		c.mu.Lock()
		delete(c.pending, uint16((*bp)[0])<<8|uint16((*bp)[1]))
		c.mu.Unlock()
		transport.PutBuf(bp)
	}
}
