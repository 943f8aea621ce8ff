package replay

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/netip"
	"sync"
	"time"

	"ldplayer/internal/obs"
	"ldplayer/internal/trace"
)

// Engine is the in-process replay pipeline: one controller goroutine
// (Reader + Postman) feeding Distributors×QueriersPerDistributor
// querier goroutines directly, in pooled batches (one channel operation
// per ~BatchSize queries). The paper's distributor level is a process
// boundary: across machines each remote client (remote.go) runs an
// Engine of its own, fed by the controller over TCP.
type Engine struct {
	cfg Config
}

// New validates the configuration and builds an engine.
func New(cfg Config) (*Engine, error) {
	if !cfg.Server.IsValid() {
		return nil, errors.New("replay: no target server")
	}
	return &Engine{cfg: cfg.withDefaults()}, nil
}

// Run replays the input stream and blocks until every query is sent and
// responses have drained (or ctx ends early).
func (e *Engine) Run(ctx context.Context, input trace.Reader) (*Report, error) {
	return e.run(ctx, input, runBatched)
}

// run is Run over a given data plane: reference_test.go's per-item
// plane reports through the same code as runBatched.
func (e *Engine) run(ctx context.Context, input trace.Reader,
	plane func(context.Context, Config, *stats, trace.Reader) ([]*queryReport, error)) (*Report, error) {
	cfg := e.cfg

	// Live instruments: shared by every querier, readable mid-run from
	// the registry. A run on a long-lived registry (obs.Default) starts
	// from the counters' current values, so the Report subtracts the
	// baseline to stay per-run.
	reg := cfg.Obs
	if reg == nil {
		reg = obs.NewRegistry()
	}
	st := newStats(reg)
	base := statValues(st)

	reports, readErr := plane(ctx, cfg, st, input)
	if readErr != nil && !errors.Is(readErr, context.Canceled) {
		return nil, fmt.Errorf("replay: input: %w", readErr)
	}

	// The totals are views over the live instruments (minus the run's
	// starting baseline); per-query results and send-time edges merge
	// from the queriers.
	now := statValues(st)
	rep := &Report{
		Sent:        now.sent - base.sent,
		Responses:   now.responses - base.responses,
		SendErrs:    now.sendErrs - base.sendErrs,
		Timeouts:    now.timeouts - base.timeouts,
		ConnsOpened: now.connsOpened - base.connsOpened,
		IDExhausted: now.idExhausted - base.idExhausted,
		IDWrapped:   now.idWrapped - base.idWrapped,
		BytesSent:   now.bytesSent - base.bytesSent,
	}
	var firstSend, lastSend time.Time
	for _, qr := range reports {
		if !qr.firstSend.IsZero() && (firstSend.IsZero() || qr.firstSend.Before(firstSend)) {
			firstSend = qr.firstSend
		}
		if qr.lastSend.After(lastSend) {
			lastSend = qr.lastSend
		}
	}
	if !firstSend.IsZero() {
		rep.Duration = lastSend.Sub(firstSend)
	}
	rep.Results = mergeResults(reports)
	return rep, nil
}

// runBatched is the production data plane: the controller reads the
// input in bulk (trace.ReadSome), routes each query to its source's
// querier and hands the queriers batches.
func runBatched(ctx context.Context, cfg Config, st *stats, input trace.Reader) ([]*queryReport, error) {
	queriers := make([]*querier, cfg.Distributors*cfg.QueriersPerDistributor)
	outs := make([]chan *batch, len(queriers))
	var wg sync.WaitGroup
	for i := range queriers {
		q := newQuerier(cfg, st)
		queriers[i], outs[i] = q, q.in
		wg.Add(1)
		go func() { defer wg.Done(); q.run(ctx) }()
	}
	router := newSticky(len(queriers))

	// Controller: read the first query to learn trace start, broadcast
	// the time synchronization, then stream batches to the queriers.
	lb := newLaneBatcher(outs, cfg.BatchSize)
	evs := make([]*trace.Event, cfg.BatchSize)
	var traceStart time.Time
	started := false
	readErr := func() error {
		defer lb.closeAll()
		for {
			if ctx.Err() != nil {
				return ctx.Err()
			}
			n, err := trace.ReadSome(input, evs)
			if err != nil {
				if errors.Is(err, io.EOF) {
					return nil
				}
				return err
			}
			for _, ev := range evs[:n] {
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
				lb.add(router.pick(ev.Src.Addr()), item{ev: ev, offset: ev.Time.Sub(traceStart)})
			}
			if n < len(evs) {
				// Short read: the source is struggling (live stream, slow
				// parse) or ending — forward partial batches now rather
				// than holding early queries for batch-mates that may be
				// a long time coming.
				lb.flushAll()
			} else {
				// The next read may block too (a closed loop admits a
				// query only as another is answered), so feed any querier
				// that has run dry.
				lb.flushIdle()
			}
		}
	}()

	wg.Wait()

	reports := make([]*queryReport, len(queriers))
	for i, q := range queriers {
		reports[i] = &q.queryReport
	}
	return reports, readErr
}

// sticky assigns sources to lanes: the first sighting picks the
// least-loaded lane, lowest index first, and later queries from the
// same source always follow — the paper's "recent query source address
// in record" rule. A source is placed once, so the scan over the lanes
// (the queriers, a handful) runs once per source.
type sticky struct {
	assign map[netip.Addr]int
	load   []int
}

func newSticky(n int) *sticky {
	return &sticky{assign: make(map[netip.Addr]int), load: make([]int, n)}
}

func (s *sticky) pick(src netip.Addr) int {
	lane, ok := s.assign[src]
	if !ok {
		for i, l := range s.load {
			if l < s.load[lane] {
				lane = i
			}
		}
		s.assign[src] = lane
	}
	s.load[lane]++
	return lane
}
