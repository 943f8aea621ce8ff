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

// querier is the end of the controller's hand-off: it emulates query
// sources, schedules sends against the trace timeline and matches
// responses. One goroutine runs the send loop over inbound batches. UDP
// queries go out through the querier's one udpSender (sendmmsg, answers
// on its recvmmsg loop); stream queries on their source's own
// transport.Conn, whose read loop answers them. The send path is
// lock-free: results live in a single-writer chunked log,
// outstanding-query tracking is one atomic, and drain blocks on a
// notification instead of polling.
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
	// sleeper is what Timed sends are paced on; run owns it.
	sleeper *transport.Sleeper

	// One transport.Conn per emulated (source, stream protocol).
	conns map[connKey]*transport.Conn
	// udp is the UDP sender, opened on the first UDP query; noUDP records
	// that opening it failed, so the run's UDP queries are send errors
	// rather than one socket attempt each.
	udp   *udpSender
	noUDP bool

	// inflight counts queries sent but not yet answered or dropped;
	// drainCh gets a token when it hits zero so drain() can block
	// instead of polling.
	inflight atomic.Int64
	drainCh  chan struct{}

	// The outcome is written only by this querier's goroutine (and, for
	// RTT, by read loops into pre-reserved slots); the engine reads it
	// after everything quiesces.
	queryReport
}

// queryReport is the querier's per-instance outcome: the fields that
// cannot live in shared counters (per-query results, send-time edges).
// The engine takes it by pointer: the log is merged, never copied.
type queryReport struct {
	results   resultLog
	firstSend time.Time
	lastSend  time.Time
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

// run is the one send loop of both modes, then the drain: FastAsPossible
// is Timed with every offset already due. Paced, each query waits for
// its offset and is stamped with the clock reading the pacer took;
// unpaced, one reading stamps a whole inbound batch. UDP queries are
// staged into the sender, which flushes on one rule: when its batch is
// full, before the querier parks or sends on a stream (a dial can block;
// this also keeps a mixed-protocol source in order), and when the
// inbound channel goes idle.
func (q *querier) run(ctx context.Context) {
	paced := q.cfg.Mode == Timed
	if paced {
		var err error
		if q.sleeper, err = transport.NewSleeper(ctx); err != nil {
			q.st.pacerFallback.Inc() // timerfd refused: the run is late, not wrong
		}
		defer q.sleeper.Close()
	}
	var now time.Time
	for b := range q.in {
		if !paced {
			now = time.Now()
		}
		for i := range b.items {
			it := b.items[i]
			if ctx.Err() != nil {
				continue // drain without sending
			}
			if paced {
				var ok bool
				if now, ok = q.pace(it.offset); !ok {
					continue
				}
			}
			if it.ev.Proto == trace.UDP {
				q.stage(it, now)
			} else {
				q.flush()
				q.send(it, now)
			}
		}
		putBatch(b)
		if len(q.in) == 0 {
			q.flush() // inbound went idle: don't sit on staged queries
		}
	}
	q.flush()
	q.drain()
}

// pace holds a query to its trace offset and returns the clock reading
// to stamp it with, or false if the context ended first. The naive
// ablation keeps its historical shape — a raw gap sleep per query on
// the same sleeper — so the drift it exists to demonstrate is untouched.
func (q *querier) pace(offset time.Duration) (time.Time, bool) {
	if !q.cfg.NaiveTiming {
		return q.sleepUntil(offset)
	}
	// Ablation: sleep the raw gap since the previous query, ignoring
	// time already consumed — drift accumulates.
	wait := offset - q.lastOffset
	q.lastOffset = offset
	if wait > 0 {
		q.flush()
		q.st.pacerSleeps.Inc()
		if !q.sleeper.Sleep(wait) {
			return time.Time{}, false
		}
	}
	return time.Now(), true
}

// sleepUntil is the Timed pacer: it blocks until offset past realStart
// and returns the clock reading it woke with, reporting false if the
// context ended first. It never returns early (see Sleeper.SleepUntil).
// A query already due passes without touching the timer, so a lane
// running behind pays one clock read and queries due together share one
// wake. Measuring from the controller's realStart absorbs the time input
// processing and distribution took: the paper's compensation,
// ΔTᵢ = Δt̄ᵢ − Δtᵢ.
func (q *querier) sleepUntil(offset time.Duration) (time.Time, bool) {
	deadline := q.realStart.Add(offset)
	if now := time.Now(); !now.Before(deadline) {
		return now, true
	}
	// Staged datagrams go out before the querier parks, so no query
	// waits on a later one's deadline; the write's time comes off the
	// wait, not on top of it.
	q.flush()
	w, ok := q.sleeper.SleepUntil(deadline)
	if ok {
		q.st.pacerSleeps.Add(uint64(w.Parks))
		q.st.pacerOversleep.ObserveDuration(w.At.Sub(deadline))
		q.st.pacerYield.ObserveDuration(w.Yield)
	}
	return w.At, ok
}

// stage hands one UDP query to the sender, opening it on first use.
func (q *querier) stage(it item, now time.Time) {
	if q.udp == nil && !q.noUDP {
		var err error
		q.udp, err = newUDPSender(q)
		q.noUDP = err != nil
	}
	if q.udp == nil {
		q.st.sendErrs.Inc() // no socket to send it on
		return
	}
	q.udp.stage(it, now)
}

// flush sends whatever UDP queries are staged.
func (q *querier) flush() {
	if q.udp != nil {
		q.udp.flush()
	}
}

// send dispatches one stream query on its source's connection. The
// result slot is reserved before the write so a response racing back on
// loopback always finds it.
func (q *querier) send(it item, now time.Time) {
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
	if slot != nil {
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
	if fresh {
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
// polling — then closes the sender and the connections (failing
// stragglers out as timeouts) and waits for their read loops so the
// engine reads the outcome from quiesced storage.
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
	if q.udp != nil {
		q.udp.close()
	}
	for _, c := range q.conns {
		c.Close()
	}
	for _, c := range q.conns {
		c.Wait()
	}
}
