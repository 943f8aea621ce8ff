package replay

import (
	"net"
	"net/netip"
	"sync"
	"sync/atomic"
	"time"

	"ldplayer/internal/dnsmsg"
	"ldplayer/internal/obs"
	"ldplayer/internal/trace"
	"ldplayer/internal/transport"
)

// udpSender is the querier's UDP data plane in both pacing modes: one
// unconnected socket, sends coalesced into transport.UDPBatch writes
// (sendmmsg on Linux — one syscall per up to 32 queries), responses
// matched by a lock-free DNS-ID slot table instead of transport.Conn's
// pending map. UDP reuses nothing across queries, so the whole querier
// shares one 65536-wide ID space and one 4-tuple (DESIGN.md "Replay
// data plane" states the client-port fidelity this gives up).
//
// Slot protocol: sendNs[id] holds the send time in unix nanos and
// doubles as the liveness marker. The sender zeroes the slot, stores
// the result index, then stores the send time; the reader Swap(0)s the
// send time and, if it was live, reads the result index. Wrapping past
// a still-live slot means the response never came within a full ID
// space of sends — counted as a timeout, and as replay.id_wrapped.
type udpSender struct {
	q   *querier
	pc  net.PacketConn
	wb  *transport.UDPBatch // sender side, owned by the querier goroutine
	dst netip.AddrPort

	sendNs []atomic.Int64 // 65536: send unix-nanos, 0 = slot free
	resIdx []atomic.Int64 // 65536: resultLog index for the slot, -1 = none
	nextID uint32         // querier goroutine only

	// out[:fill] are the staged datagrams (querier goroutine only), in
	// the sender's own storage: each slot's Buf grows to the largest
	// query it has carried and is reused.
	out  []transport.Datagram
	fill int

	// Per-flush accumulators (querier goroutine only): shared counters,
	// the send-lag histogram and the inflight atomic are touched once
	// per batch, not per query.
	pendBytes  uint64
	pendCount  int64
	lastOffset time.Duration
	lastWall   time.Duration
	lagBatch   *obs.HistogramBatch
	// refused counts datagrams flush settled as send errors whose slots
	// are still live (WriteBatch says how many it refused, not which);
	// the sweeps discount them so none is also counted as a timeout.
	refused int

	readerWG sync.WaitGroup
}

// newUDPSender opens the querier's socket — Config.Dialer's, or a real
// one — and starts its read loop.
func newUDPSender(q *querier) (*udpSender, error) {
	var pc net.PacketConn
	var err error
	if q.cfg.Dialer != nil {
		pc, err = q.cfg.Dialer.ListenPacketConn()
	} else {
		pc, err = transport.ListenUDPUnconnected(q.cfg.Server)
	}
	if err != nil {
		return nil, err
	}
	// Replies land here while the read loop may be off its core.
	transport.GrowReadBuffer(pc)
	s := &udpSender{
		q:        q,
		pc:       pc,
		wb:       transport.NewUDPBatch(pc),
		dst:      q.cfg.Server,
		sendNs:   make([]atomic.Int64, 1<<16),
		resIdx:   make([]atomic.Int64, 1<<16),
		out:      make([]transport.Datagram, transport.BatchLen),
		lagBatch: q.st.sendLag.NewBatch(),
	}
	s.readerWG.Add(1)
	go s.readLoop()
	return s, nil
}

// stage copies one query into the next batch slot with a fresh DNS ID
// patched in, registers its slot, and flushes when the batch is full.
//
// now is the query's send timestamp. Paced, it is the clock reading the
// pacer woke with; unpaced, one reading covers a whole inbound batch:
// at millions of qps a staged batch spans microseconds, well inside the
// send-timestamp precision the results claim, and the per-query vDSO
// call was one of the largest single costs on the old send path.
func (s *udpSender) stage(it item, now time.Time) {
	idx := int64(-1)
	wall := now.Sub(s.q.realStart)
	if !s.q.cfg.DropResults {
		i, slot := s.q.results.reserve()
		*slot = QueryResult{
			TraceOffset: it.offset,
			SentOffset:  wall,
			RTT:         -1,
			Proto:       trace.UDP,
			Src:         it.ev.Src.Addr(),
		}
		idx = int64(i)
	}
	id := uint16(s.nextID)
	s.nextID++
	if s.sendNs[id].Swap(0) != 0 && s.expire() {
		// Wrapped onto a live slot: the query a full ID space ago never
		// got its response, and is written off before its timeout.
		s.q.st.idWrapped.Inc()
	}
	s.resIdx[id].Store(idx)
	d := &s.out[s.fill]
	d.Buf = append(d.Buf[:0], it.ev.Wire...)
	d.Buf[0], d.Buf[1] = byte(id>>8), byte(id)
	d.Addr = s.dst
	s.sendNs[id].Store(now.UnixNano())
	// Every sample still lands in the histograms, but through local
	// batch accumulators; counters, gauges and the inflight atomic are
	// likewise deferred to flush, one update per batch.
	if lag := wall - it.offset; lag > 0 {
		s.lagBatch.ObserveDuration(lag)
	} else {
		s.lagBatch.ObserveDuration(0)
	}
	s.pendBytes += uint64(len(it.ev.Wire))
	s.pendCount++
	s.lastOffset, s.lastWall = it.offset, wall
	if s.q.firstSend.IsZero() {
		s.q.firstSend = now
	}
	s.q.lastSend = now
	if s.fill++; s.fill == len(s.out) {
		s.flush()
	}
}

// flush hands the staged datagrams to the kernel and settles the
// deferred per-batch accounting. Datagrams the kernel refused
// (WriteBatch skips per-datagram failures) are send errors, settled
// here and now: drain must not wait on them, and the sweeps that later
// find their slots live must not call them timeouts as well.
func (s *udpSender) flush() {
	if s.fill == 0 {
		return
	}
	ms := s.out[:s.fill]
	s.fill = 0
	// Inflight rises before the write: a response can race back the
	// moment WriteBatch releases the datagrams.
	s.q.inflight.Add(s.pendCount)
	s.q.st.bytesSent.Add(s.pendBytes)
	s.q.st.traceOffset.Set(s.lastOffset.Seconds())
	s.q.st.wallOffset.Set(s.lastWall.Seconds())
	s.lagBatch.Flush()
	s.pendBytes, s.pendCount = 0, 0
	//ldp:nolint errcheck — a fatal write error surfaces as n < len(ms); the shortfall is counted into sendErrs below either way
	n, _ := s.wb.WriteBatch(ms)
	s.q.st.sent.Add(uint64(n))
	if short := len(ms) - n; short > 0 {
		s.q.st.sendErrs.Add(uint64(short))
		s.q.inflight.Add(int64(-short))
		s.refused += short
	}
}

// readLoop drains responses in batches (recvmmsg) until the socket
// closes, matching each by DNS ID through the slot table.
func (s *udpSender) readLoop() {
	defer s.readerWG.Done()
	rb := transport.NewUDPBatch(s.pc)
	rtts := s.q.st.rtt.NewBatch() // this goroutine's local accumulator
	msp := transport.GetBatch()
	defer transport.PutBatch(msp)
	ms := *msp
	for {
		n, err := rb.ReadBatch(ms)
		if err != nil {
			return // socket closed at drain (or fatally broken)
		}
		// One clock read per batch, RTTs in raw nanos: time.Unix plus
		// Time.Sub per response was measurable at millions of qps.
		nowNs := time.Now().UnixNano()
		matched := int64(0)
		for i := range ms[:n] {
			buf := ms[i].Buf[:ms[i].N]
			if len(buf) < 2 {
				continue // no ID to match
			}
			id := uint16(buf[0])<<8 | uint16(buf[1])
			sentNs := s.sendNs[id].Swap(0)
			if sentNs == 0 {
				continue // unmatched, duplicate, or already swept
			}
			rtt := time.Duration(nowNs - sentNs)
			matched++
			rtts.ObserveDuration(rtt)
			// Validation is the header only: the rcode nibble gives the
			// per-rcode breakdown without a full decode per response. A
			// reply too short to hold a header is answered but bad, as a
			// Conn's undecodable response is.
			if len(buf) < 12 {
				s.q.st.badResponses.Inc()
			} else {
				s.q.st.countRcode(dnsmsg.Rcode(buf[3] & 0x0f))
			}
			if idx := s.resIdx[id].Load(); idx >= 0 {
				if r := s.q.results.at(int(idx)); r != nil {
					r.RTT = rtt
				}
			}
		}
		if matched > 0 {
			rtts.Flush()
			s.q.st.responses.Add(uint64(matched))
			if s.q.inflight.Add(-matched) == 0 {
				s.q.notifyDrain()
			}
		}
	}
}

// close tears the sender down: closes the socket (unblocking the read
// loop), waits for it, then sweeps still-live slots as timeouts so the
// drain accounting matches the Conn path's OnDrop semantics.
func (s *udpSender) close() {
	s.pc.Close() //ldp:nolint errcheck — teardown; the read loop exits on the close either way
	s.readerWG.Wait()
	for i := range s.sendNs {
		if s.sendNs[i].Swap(0) != 0 {
			s.expire()
		}
	}
}

// expire settles a slot a sweep found still live: a timeout, unless
// flush already settled it as a refused datagram. It reports whether it
// counted a timeout.
func (s *udpSender) expire() bool {
	if s.refused > 0 {
		s.refused--
		return false
	}
	s.q.st.timeouts.Inc()
	s.q.inflight.Add(-1)
	return true
}
