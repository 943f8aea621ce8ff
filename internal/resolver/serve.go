package resolver

import (
	"context"
	"errors"
	"net"
	"sync"
	"time"

	"ldplayer/internal/dnsmsg"
	"ldplayer/internal/transport"
)

// The recursive replay mode of the paper's Fig 1: the query engine sends
// stub queries to a recursive server, which resolves them through the
// (emulated) hierarchy. This file is that recursive server's front end.

// HandleStub answers one stub query: cache or iterative resolution.
// It is transport-independent; ServeUDP wraps it for the wire.
func (r *Resolver) HandleStub(ctx context.Context, req *dnsmsg.Msg) *dnsmsg.Msg {
	resp := &dnsmsg.Msg{}
	resp.SetReply(req)
	resp.RecursionAvailable = true
	if req.Opcode != dnsmsg.OpcodeQuery || len(req.Question) != 1 {
		resp.Rcode = dnsmsg.RcodeNotImpl
		return resp
	}
	q := req.Question[0]
	if q.Class != dnsmsg.ClassINET {
		resp.Rcode = dnsmsg.RcodeNotImpl
		return resp
	}
	m, err := r.Resolve(ctx, q.Name, q.Type)
	if err != nil {
		resp.Rcode = dnsmsg.RcodeServFail
		return resp
	}
	resp.Rcode = m.Rcode
	resp.Answer = m.Answer
	resp.Authority = m.Authority
	if size, do, ok := req.EDNS(); ok {
		_ = size
		resp.SetEDNS(dnsmsg.DefaultEDNSUDP, do)
	}
	return resp
}

// ServeUDP answers stub queries on conn until ctx ends, up to
// maxInflight (default 256) at once: one slow upstream walk must not
// hold up the rest — recursive servers are concurrent by nature. One
// goroutine reads at a time; once it has a query, it starts the next
// reader and answers the query itself, so no answer waits for a
// goroutine to be scheduled (a wake-up costs more than a resolution
// through the in-process hierarchy). ServeUDP returns once every answer
// in flight has been sent.
func (r *Resolver) ServeUDP(ctx context.Context, conn net.PacketConn, maxInflight int) error {
	if maxInflight <= 0 {
		maxInflight = 256
	}
	stop := context.AfterFunc(ctx, func() { conn.SetReadDeadline(time.Now()) }) //ldp:nolint errcheck — best-effort unblock of the read loop on cancel
	defer stop()
	f := &udpFront{r: r, ctx: ctx, conn: conn, slots: make(chan struct{}, maxInflight), done: make(chan error, 1)}
	f.wg.Add(1)
	go f.read()
	err := <-f.done
	f.wg.Wait()
	return err
}

// udpFront is the state ServeUDP's goroutines share.
type udpFront struct {
	r     *Resolver
	ctx   context.Context
	conn  net.PacketConn
	slots chan struct{} // one per query being read or answered
	done  chan error    // the reader that stops says why
	wg    sync.WaitGroup
}

// read waits for a query, hands the reading on to a new goroutine and
// answers the query.
func (f *udpFront) read() {
	defer f.wg.Done()
	select {
	case f.slots <- struct{}{}:
	case <-f.ctx.Done():
		f.done <- nil
		return
	}
	defer func() { <-f.slots }()
	req, addr, err := f.next()
	if err != nil {
		if f.ctx.Err() != nil {
			err = nil
		}
		f.done <- err
		return
	}
	f.wg.Add(1)
	go f.read()
	f.answer(req, addr)
}

// next reads until a datagram decodes as a message, skipping malformed
// ones and read timeouts other than the cancellation's.
func (f *udpFront) next() (*dnsmsg.Msg, net.Addr, error) {
	bp := transport.GetBuf()
	defer transport.PutBuf(bp)
	for {
		n, addr, err := f.conn.ReadFrom(*bp)
		if err != nil {
			var nerr net.Error
			if f.ctx.Err() == nil && errors.As(err, &nerr) && nerr.Timeout() {
				continue
			}
			return nil, nil, err
		}
		// Decode through the message pool. The question name is cloned
		// off the decode arena: Resolve may retain it (cache keys,
		// upstream questions) past this message's reuse.
		req := dnsmsg.GetMsg()
		if err := req.UnpackBuffer((*bp)[:n]); err != nil {
			dnsmsg.PutMsg(req)
			continue
		}
		for i := range req.Question {
			req.Question[i].Name = req.Question[i].Name.Clone()
		}
		return req, addr, nil
	}
}

// answer resolves req and sends the reply, packed into a borrowed
// buffer. A reply too big for the stub — 512 bytes without EDNS, its
// advertised size with — goes out truncated, as an authoritative
// server's would, so the stub retries over TCP.
func (f *udpFront) answer(req *dnsmsg.Msg, addr net.Addr) {
	defer dnsmsg.PutMsg(req)
	udpSize, _, hasEDNS := req.EDNS()
	limit := dnsmsg.ResponseLimit(dnsmsg.MaxUDPSize, udpSize, hasEDNS)
	resp := f.r.HandleStub(f.ctx, req)
	bp := transport.GetBuf()
	defer transport.PutBuf(bp)
	wire, err := resp.AppendPack((*bp)[:0])
	if err == nil && len(wire) > limit {
		resp.Truncate()
		wire, err = resp.AppendPack((*bp)[:0])
	}
	if err != nil {
		return
	}
	f.conn.WriteTo(wire, addr) //ldp:nolint errcheck — per-datagram send failure; UDP clients retry, server keeps serving
}
