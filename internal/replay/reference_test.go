package replay

import (
	"context"
	"errors"
	"io"
	"net/netip"
	"sync"
	"time"

	"ldplayer/internal/trace"
	"ldplayer/internal/transport"
)

// The reference data plane: the engine exactly as it was before the
// batched rebuild — a distributor stage between controller and
// queriers, one channel operation per query, one time.NewTimer
// per Timed wait, per-query transport.Conn sends, results recorded
// under a mutex, drain by 5 ms polling. It lives in a test file: no
// binary can select it, but the speedup gate in `make bench-check`
// measures the batched plane against it in the same run on the same
// hardware, and TestBatchedMatchesReference asserts the two planes
// produce equivalent replays.

// runPlane replays input through the batched plane or, with reference
// set, through runReference behind the same report assembly.
func runPlane(ctx context.Context, cfg Config, input trace.Reader, reference bool) (*Report, error) {
	eng, err := New(cfg)
	if err != nil {
		return nil, err
	}
	if reference {
		return eng.run(ctx, input, runReference)
	}
	return eng.Run(ctx, input)
}

// runReference mirrors runBatched over per-item channels, through the
// two-level tree of stacked stickies the engine used to run in process.
func runReference(ctx context.Context, cfg Config, st *stats, input trace.Reader) ([]*queryReport, error) {
	var queriers []*refQuerier
	dists := make([]*refDistributor, cfg.Distributors)
	for d := range dists {
		qs := make([]*refQuerier, cfg.QueriersPerDistributor)
		for qi := range qs {
			q := newRefQuerier(cfg, st)
			qs[qi] = q
			queriers = append(queriers, q)
		}
		dists[d] = &refDistributor{
			in:       make(chan item, cfg.ChannelDepth),
			queriers: qs,
			router:   newSticky(len(qs)),
		}
	}

	var wg sync.WaitGroup
	for _, d := range dists {
		wg.Add(1)
		go func() { defer wg.Done(); d.run() }()
	}
	for _, q := range queriers {
		wg.Add(1)
		go func() { defer wg.Done(); q.run(ctx) }()
	}

	router := newSticky(len(dists))
	var traceStart time.Time
	started := false
	readErr := func() error {
		defer func() {
			for _, d := range dists {
				close(d.in)
			}
		}()
		for {
			if ctx.Err() != nil {
				return ctx.Err()
			}
			ev, err := input.Read()
			if err != nil {
				if errors.Is(err, io.EOF) {
					return nil
				}
				return err
			}
			if !ev.IsQuery() {
				continue
			}
			if !started {
				traceStart = ev.Time
				realStart := time.Now()
				for _, q := range queriers {
					q.sync(traceStart, realStart)
				}
				started = true
			}
			dists[router.pick(ev.Src.Addr())].in <- item{ev: ev, offset: ev.Time.Sub(traceStart)}
		}
	}()

	wg.Wait()

	reports := make([]*queryReport, len(queriers))
	for i, q := range queriers {
		reports[i] = &q.queryReport
	}
	return reports, readErr
}

// refDistributor forwards items one at a time.
type refDistributor struct {
	in       chan item
	queriers []*refQuerier
	router   *sticky
}

func (d *refDistributor) run() {
	for it := range d.in {
		d.queriers[d.router.pick(it.ev.Src.Addr())].in <- it
	}
	for _, q := range d.queriers {
		close(q.in)
	}
}

// refQuerier is the pre-batching querier, preserved behavior for
// behavior: per-item channel, a fresh timer per Timed wait, results
// recorded under the mutex that every response callback also takes (in
// the engine's result log, so the report assembly is shared).
type refQuerier struct {
	in  chan item
	cfg Config
	st  *stats

	syncOnce   sync.Once
	traceStart time.Time
	realStart  time.Time
	lastOffset time.Duration

	conns map[connKey]*transport.Conn

	mu sync.Mutex // guards the result fields below (readers report in)
	queryReport
}

func newRefQuerier(cfg Config, st *stats) *refQuerier {
	return &refQuerier{
		in:    make(chan item, cfg.ChannelDepth),
		cfg:   cfg,
		st:    st,
		conns: make(map[connKey]*transport.Conn),
	}
}

func (q *refQuerier) sync(traceStart, realStart time.Time) {
	q.syncOnce.Do(func() {
		q.traceStart = traceStart
		q.realStart = realStart
	})
}

func (q *refQuerier) run(ctx context.Context) {
	for it := range q.in {
		if ctx.Err() != nil {
			continue // drain without sending
		}
		if q.cfg.Mode == Timed {
			var wait time.Duration
			if q.cfg.NaiveTiming {
				wait = it.offset - q.lastOffset
				q.lastOffset = it.offset
			} else {
				wait = it.offset - time.Since(q.realStart)
			}
			if wait > 0 {
				timer := time.NewTimer(wait)
				select {
				case <-timer.C:
				case <-ctx.Done():
					timer.Stop()
					continue
				}
			}
		}
		q.send(it)
	}
	q.drain()
}

func (q *refQuerier) send(it item) {
	now := time.Now()
	idx := -1
	if !q.cfg.DropResults {
		q.mu.Lock()
		var slot *QueryResult
		idx, slot = q.results.reserve()
		*slot = QueryResult{
			TraceOffset: it.offset,
			SentOffset:  now.Sub(q.realStart),
			RTT:         -1,
			Proto:       it.ev.Proto,
			Src:         it.ev.Src.Addr(),
		}
		q.mu.Unlock()
	}
	c := q.connFor(it.ev.Src.Addr(), it.ev.Proto)
	fresh, err := c.Send(it.ev.Wire, idx)

	if err != nil {
		q.st.sendErrs.Inc()
		if errors.Is(err, transport.ErrIDSpaceExhausted) {
			q.st.idExhausted.Inc()
		}
	} else {
		q.st.sent.Inc()
		q.st.bytesSent.Add(uint64(len(it.ev.Wire)))
		q.st.observeSend(it.offset, now.Sub(q.realStart))
		if fresh && it.ev.Proto != trace.UDP {
			q.st.connsOpened.Inc()
		}
	}

	q.mu.Lock()
	defer q.mu.Unlock()
	if idx >= 0 && it.ev.Proto != trace.UDP {
		q.results.at(idx).FreshConn = fresh
	}
	if err != nil {
		return
	}
	if q.firstSend.IsZero() {
		q.firstSend = now
	}
	q.lastSend = now
}

// connFor is the engine's per-source connection, except that a UDP
// source gets one too: a connected socket of its own that never idles
// out, as the engine's queriers had before they shared one UDP sender.
func (q *refQuerier) connFor(src netip.Addr, proto trace.Proto) *transport.Conn {
	key := connKey{src: src, proto: proto}
	if c := q.conns[key]; c != nil {
		return c
	}
	dial, idle := streamDial(q.cfg, proto), q.cfg.ConnIdleTimeout
	if proto == trace.UDP {
		var d transport.Dialer = q.cfg.Dialer
		if q.cfg.Dialer == nil {
			d = &transport.NetDialer{}
		}
		dial = func() (transport.Endpoint, error) {
			return d.Dial(context.Background(), transport.UDP, q.cfg.Server)
		}
		idle = 0
	}
	c := newSourceConn(q.st, dial, idle, q.recordResponse, q.recordDrop)
	q.conns[key] = c
	return c
}

func (q *refQuerier) recordResponse(resultIdx int, rtt time.Duration) {
	q.st.responses.Inc()
	q.st.rtt.ObserveDuration(rtt)
	if q.cfg.DropResults {
		return
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	if r := q.results.at(resultIdx); r != nil {
		r.RTT = rtt
	}
}

func (q *refQuerier) recordDrop() {
	q.st.timeouts.Inc()
}

// drain waits for outstanding responses by polling — the behavior the
// notification-based drain replaced — then closes the connections.
func (q *refQuerier) drain() {
	deadline := time.Now().Add(q.cfg.ResponseTimeout)
	for time.Now().Before(deadline) {
		if q.outstanding() == 0 {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	for _, c := range q.conns {
		c.Close()
	}
	for _, c := range q.conns {
		c.Wait()
	}
}

func (q *refQuerier) outstanding() int {
	n := 0
	for _, c := range q.conns {
		n += c.Pending()
	}
	return n
}
