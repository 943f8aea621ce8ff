package replay

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"ldplayer/internal/trace"
	"ldplayer/internal/transport"
)

// querier is the bottom of the distribution tree: it owns the per-source
// connections, emulates query sources, schedules sends against the trace
// timeline and matches responses. One goroutine runs the send loop over
// inbound batches; responses arrive on transport.Conn read loops (Timed,
// and non-UDP in fast mode) or the udpSender's recvmmsg loop
// (FastAsPossible UDP). The send path is lock-free: results live in a
// single-writer chunked log, outstanding-query tracking is one atomic,
// and drain blocks on a notification instead of polling.
type querier struct {
	in  chan *batch
	cfg Config
	// st is the engine-wide live accounting every querier feeds; totals
	// are observable mid-run through the engine's obs registry.
	st *stats

	// Time synchronization (set once by the controller's broadcast).
	syncOnce   sync.Once
	traceStart time.Time
	realStart  time.Time
	// lastOffset supports the naive-timing ablation.
	lastOffset time.Duration
	// sleeper is what Timed sends are paced on; runTimed owns it.
	sleeper *transport.Sleeper

	// One transport.Conn per emulated (source, protocol).
	conns map[connKey]*transport.Conn
	// fast is the sendmmsg data plane, created on the first
	// FastAsPossible UDP query. Real sockets by default; a Dialer
	// override keeps the Conn path unless the dialer is a
	// transport.PacketDialer, whose fabric vends the shared socket.
	fast    *udpSender
	fastErr bool // sender creation failed once; don't retry per query

	// inflight counts queries sent but not yet answered or dropped;
	// drainCh gets a token when it hits zero so drain() can block
	// instead of polling.
	inflight atomic.Int64
	drainCh  chan struct{}

	// results and the send-time edges are written only by this querier's
	// goroutine (and, for RTT, by read loops into pre-reserved slots);
	// report() runs after everything quiesces.
	results   resultLog
	firstSend time.Time
	lastSend  time.Time
}

// queryReport is the querier's per-instance outcome: the fields that
// cannot live in shared counters (per-query results, send-time edges).
type queryReport struct {
	firstSend time.Time
	lastSend  time.Time
	results   []QueryResult
}

func newQuerier(cfg Config, st *stats) *querier {
	depth := cfg.ChannelDepth / cfg.BatchSize
	if depth < 1 {
		depth = 1
	}
	return &querier{
		in:      make(chan *batch, depth),
		cfg:     cfg,
		st:      st,
		conns:   make(map[connKey]*transport.Conn),
		drainCh: make(chan struct{}, 1),
	}
}

// sync delivers the controller's time synchronization broadcast: the
// trace time t̄₁ and real time t₁ that every offset is measured against.
func (q *querier) sync(traceStart, realStart time.Time) {
	q.syncOnce.Do(func() {
		q.traceStart = traceStart
		q.realStart = realStart
	})
}

func (q *querier) run(ctx context.Context) {
	if q.cfg.Mode == FastAsPossible {
		q.runFast(ctx)
	} else {
		q.runTimed(ctx)
	}
	q.drain()
}

// runTimed holds each query to its exact trace offset (sleepUntil). The
// naive ablation keeps its historical shape — a raw gap sleep per query
// on the same sleeper — so the drift it exists to demonstrate is
// untouched.
func (q *querier) runTimed(ctx context.Context) {
	var err error
	if q.sleeper, err = transport.NewSleeper(ctx); err != nil {
		q.st.pacerFallback.Inc() // timerfd refused: the run is late, not wrong
	}
	defer q.sleeper.Close()
	for b := range q.in {
		for i := range b.items {
			it := b.items[i]
			if ctx.Err() != nil {
				continue // drain without sending
			}
			if q.cfg.NaiveTiming {
				// Ablation: sleep the raw gap since the previous query,
				// ignoring time already consumed — drift accumulates.
				wait := it.offset - q.lastOffset
				q.lastOffset = it.offset
				if wait > 0 && !q.sleep(wait) {
					continue
				}
			} else if !q.sleepUntil(it.offset) {
				continue
			}
			q.send(it)
		}
		putBatch(b)
	}
}

// sleepUntil is the Timed pacer: it blocks until offset past realStart,
// returning false if the context ended first, and never returns early —
// after any wake it re-reads the clock and waits out the remainder. A
// query already due passes without touching the timer, so a lane running
// behind pays nothing and queries due together share one wake. Measuring
// from the controller's realStart absorbs the time input processing and
// distribution took: the paper's compensation, ΔTᵢ = Δt̄ᵢ − Δtᵢ.
func (q *querier) sleepUntil(offset time.Duration) bool {
	deadline := q.realStart.Add(offset)
	wait := time.Until(deadline)
	if wait <= 0 {
		return true
	}
	for wait > 0 {
		if !q.sleep(wait) {
			return false
		}
		wait = time.Until(deadline)
	}
	q.st.pacerOversleep.ObserveDuration(-wait)
	return true
}

// sleep blocks for d: one timer arm.
func (q *querier) sleep(d time.Duration) bool {
	q.st.pacerSleeps.Inc()
	return q.sleeper.Sleep(d)
}

// runFast sends as fast as the pipeline moves. UDP queries coalesce
// into pooled datagram batches flushed through sendmmsg; stream
// protocols fall through to the per-source Conn path. The pooled
// transport batch is a function local on purpose: its lifetime is
// exactly this loop, never stored.
func (q *querier) runFast(ctx context.Context) {
	msp := transport.GetBatch()
	defer transport.PutBatch(msp)
	ms := *msp
	fill := 0
	for b := range q.in {
		// One clock read covers the whole batch's send timestamps; see
		// stage for the precision argument.
		now := time.Now()
		nowNs := now.UnixNano()
		for i := range b.items {
			it := b.items[i]
			if ctx.Err() != nil {
				continue
			}
			if it.ev.Proto == trace.UDP && q.fastSender() != nil {
				fill = q.fast.stage(ms, fill, it, now, nowNs)
				if fill == len(ms) {
					q.fast.flush(ms)
					fill = 0
				}
			} else {
				q.send(it)
			}
		}
		putBatch(b)
		if fill > 0 && len(q.in) == 0 {
			// Inbound went idle: don't sit on staged queries.
			q.fast.flush(ms[:fill])
			fill = 0
		}
	}
	if fill > 0 {
		q.fast.flush(ms[:fill])
	}
}

// fastSender lazily builds the sendmmsg plane; nil means this config
// (or a socket failure) keeps UDP on the Conn path.
func (q *querier) fastSender() *udpSender {
	if q.fast != nil {
		return q.fast
	}
	if q.fastErr {
		return nil
	}
	if q.cfg.Dialer != nil {
		if _, ok := q.cfg.Dialer.(transport.PacketDialer); !ok {
			return nil
		}
	}
	s, err := newUDPSender(q)
	if err != nil {
		q.fastErr = true
		return nil
	}
	q.fast = s
	return s
}

// send dispatches one query on the right connection for its source. The
// result slot is reserved before the write so a response racing back on
// loopback always finds it.
func (q *querier) send(it item) {
	now := time.Now()
	idx := -1
	var slot *QueryResult
	if !q.cfg.DropResults {
		idx, slot = q.results.reserve()
		*slot = QueryResult{
			TraceOffset: it.offset,
			SentOffset:  now.Sub(q.realStart),
			RTT:         -1,
			Proto:       it.ev.Proto,
			Src:         it.ev.Src.Addr(),
		}
	}
	c := q.connFor(it.ev.Src.Addr(), it.ev.Proto)
	fresh, err := c.Send(it.ev.Wire, idx)
	if slot != nil && it.ev.Proto != trace.UDP {
		slot.FreshConn = fresh
	}
	if err != nil {
		q.st.sendErrs.Inc()
		if errors.Is(err, transport.ErrIDSpaceExhausted) {
			q.st.idExhausted.Inc()
		}
		return
	}
	q.st.sent.Inc()
	q.st.bytesSent.Add(uint64(len(it.ev.Wire)))
	q.st.observeSend(it.offset, now.Sub(q.realStart))
	if fresh && it.ev.Proto != trace.UDP {
		q.st.connsOpened.Inc()
	}
	q.inflight.Add(1)
	if q.firstSend.IsZero() {
		q.firstSend = now
	}
	q.lastSend = now
}

// recordResponse is called from connection read loops. The slot write
// needs no lock: the index was reserved before the Send that produced
// this callback, and RTT is the callback's exclusive field.
func (q *querier) recordResponse(idx int, rtt time.Duration) {
	q.st.responses.Inc()
	q.st.rtt.ObserveDuration(rtt)
	if !q.cfg.DropResults {
		if r := q.results.at(idx); r != nil {
			r.RTT = rtt
		}
	}
	if q.inflight.Add(-1) == 0 {
		q.notifyDrain()
	}
}

// recordDrop is called when an in-flight query will never be answered:
// its connection died or was closed at drain. Either way the query timed
// out from the trace's point of view.
func (q *querier) recordDrop() {
	q.st.timeouts.Inc()
	if q.inflight.Add(-1) == 0 {
		q.notifyDrain()
	}
}

// notifyDrain wakes drain() without blocking the read loop that calls
// it; the buffered token coalesces duplicate wake-ups.
func (q *querier) notifyDrain() {
	select {
	case q.drainCh <- struct{}{}:
	default:
	}
}

// drain waits for outstanding responses — woken by the read loops, not
// polling — then closes the connections (failing stragglers out through
// recordDrop) and waits for their read loops so report() runs against
// quiesced storage.
func (q *querier) drain() {
	deadline := time.NewTimer(q.cfg.ResponseTimeout)
	defer deadline.Stop()
wait:
	for q.inflight.Load() > 0 {
		select {
		case <-q.drainCh:
		case <-deadline.C:
			break wait
		}
	}
	if q.fast != nil {
		q.fast.close()
	}
	for _, c := range q.conns {
		c.Close()
	}
	for _, c := range q.conns {
		c.Wait()
	}
}

// report returns the merged outcome after run() finishes.
func (q *querier) report() queryReport {
	return queryReport{
		firstSend: q.firstSend,
		lastSend:  q.lastSend,
		results:   q.results.snapshot(),
	}
}
