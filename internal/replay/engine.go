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
// (Reader + Postman), D distributor goroutines, D×Q querier goroutines.
// The same pipeline shape runs across machines via the protocol in
// remote.go; in-process channels stand in for the TCP links. Queries
// move through the tree in pooled batches (one channel operation per
// ~BatchSize queries).
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
// input in bulk (trace.ReadSome), accumulates per-lane batches, and the
// tree forwards them whole.
func runBatched(ctx context.Context, cfg Config, st *stats, input trace.Reader) ([]*queryReport, error) {
	// Build the distribution tree and the controller's lanes (outs):
	// two-level by default, routed at ingress for both levels with the
	// querier lane stamped into the item (see treeRouter); the
	// ablation's direct mode routes sources straight onto queriers.
	var queriers []*querier
	var dists []*distributor
	var outs []chan *batch
	var router *sticky
	var tree *treeRouter
	if cfg.DirectDistribution {
		for range cfg.Distributors * cfg.QueriersPerDistributor {
			q := newQuerier(cfg, st)
			queriers = append(queriers, q)
			outs = append(outs, q.in)
		}
		router = newSticky(len(outs))
	} else {
		for range cfg.Distributors {
			qs := make([]*querier, cfg.QueriersPerDistributor)
			for qi := range qs {
				qs[qi] = newQuerier(cfg, st)
			}
			queriers = append(queriers, qs...)
			d := newDistributor(qs, cfg)
			dists = append(dists, d)
			outs = append(outs, d.in)
		}
		tree = newTreeRouter(len(dists), cfg.QueriersPerDistributor)
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

	// Controller: read the first query to learn trace start, broadcast
	// the time synchronization, then stream batches down the tree.
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
				if tree != nil {
					p := tree.pick(ev.Src.Addr())
					lb.add(p.dist, item{ev: ev, offset: ev.Time.Sub(traceStart), lane: p.querier})
				} else {
					lb.add(router.pick(ev.Src.Addr()), item{ev: ev, offset: ev.Time.Sub(traceStart)})
				}
			}
			if n < len(evs) {
				// Short read: the source is struggling (live stream, slow
				// parse) or ending — forward partial batches now rather
				// than holding early queries for batch-mates that may be
				// a long time coming.
				lb.flushAll()
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

// distributor forwards batches to queriers with same-source affinity; it
// exists as a real pipeline stage (rather than a function call) because
// the paper's design makes it one, and the ablation bench measures what
// the extra hop costs. Inbound batches are re-cut per querier lane —
// pre-stamped by the controller's treeRouter, so forwarding is an array
// index, not a map lookup. Partial lane batches flush whenever the
// inbound channel goes idle, so batching never adds latency beyond what
// the channel already holds.
type distributor struct {
	in       chan *batch
	queriers []*querier
	size     int
}

func newDistributor(qs []*querier, cfg Config) *distributor {
	depth := cfg.ChannelDepth / cfg.BatchSize
	if depth < 1 {
		depth = 1
	}
	return &distributor{
		in:       make(chan *batch, depth),
		queriers: qs,
		size:     cfg.BatchSize,
	}
}

func (d *distributor) run() {
	outs := make([]chan *batch, len(d.queriers))
	for i, q := range d.queriers {
		outs[i] = q.in
	}
	lb := newLaneBatcher(outs, d.size)
	for b := range d.in {
		for i := range b.items {
			it := b.items[i]
			lb.add(it.lane, it)
		}
		putBatch(b)
		if len(d.in) == 0 {
			lb.flushAll()
		}
	}
	lb.closeAll()
}

// levelList tracks per-lane load with an incrementally-maintained exact
// minimum, exploiting that loads only ever increase: keep the current
// minimum level and the (index-ordered) list of lanes that sat at that
// level when it was last scanned. place takes the next candidate whose
// load still equals the level (entries a bumped lane left behind are
// skipped); when the level drains, one O(lanes) rescan finds the next.
// Amortized O(1) per placement versus a full scan, and the lowest-index
// tie-break — which the affinity tests pin down — is preserved because
// candidates are built and consumed in index order.
type levelList struct {
	load    []int
	minLoad int
	cand    []int // lanes at minLoad as of the last rescan, index order
	cursor  int   // next candidate to try
}

func newLevelList(n int) *levelList {
	l := &levelList{load: make([]int, n), cand: make([]int, n)}
	for i := range l.cand {
		l.cand[i] = i
	}
	return l
}

// bump records one more query on an already-assigned lane.
func (l *levelList) bump(lane int) { l.load[lane]++ }

// place assigns a new source: the least-loaded lane, lowest index first.
func (l *levelList) place() int {
	for {
		for l.cursor < len(l.cand) {
			lane := l.cand[l.cursor]
			l.cursor++
			if l.load[lane] == l.minLoad {
				l.load[lane]++
				return lane
			}
			// Stale: this lane was bumped past the level by a sticky hit.
		}
		// Level drained — rescan for the new minimum.
		min := l.load[0]
		for _, ld := range l.load[1:] {
			if ld < min {
				min = ld
			}
		}
		l.minLoad = min
		l.cand = l.cand[:0]
		for i, ld := range l.load {
			if ld == min {
				l.cand = append(l.cand, i)
			}
		}
		l.cursor = 0
	}
}

// sticky assigns sources to lanes: the first sighting picks the
// least-loaded lane, later queries from the same source always follow —
// the paper's "recent query source address in record" rule.
type sticky struct {
	assign map[netip.Addr]int
	ll     *levelList
}

func newSticky(n int) *sticky {
	return &sticky{assign: make(map[netip.Addr]int), ll: newLevelList(n)}
}

func (s *sticky) pick(src netip.Addr) int {
	if lane, ok := s.assign[src]; ok {
		s.ll.bump(lane)
		return lane
	}
	lane := s.ll.place()
	s.assign[src] = lane
	return lane
}

// lanePair is one source's place in the two-level tree.
type lanePair struct {
	dist    int
	querier int // lane within the distributor
}

// treeRouter makes both levels' sticky decisions at ingress with a
// single map lookup per query, storing the (distributor, querier) pair
// against the source. The distributor then forwards by the stamped lane
// instead of re-hashing every source — address hashing was one of the
// largest per-query costs when both levels kept separate maps. The
// decisions are identical to two stacked stickies: the second level
// sees its items in the same relative order either way.
type treeRouter struct {
	assign map[netip.Addr]lanePair
	dists  *levelList
	qs     []*levelList // per-distributor querier loads
}

func newTreeRouter(dists, queriersPer int) *treeRouter {
	r := &treeRouter{
		assign: make(map[netip.Addr]lanePair),
		dists:  newLevelList(dists),
		qs:     make([]*levelList, dists),
	}
	for i := range r.qs {
		r.qs[i] = newLevelList(queriersPer)
	}
	return r
}

func (r *treeRouter) pick(src netip.Addr) lanePair {
	if p, ok := r.assign[src]; ok {
		r.dists.bump(p.dist)
		r.qs[p.dist].bump(p.querier)
		return p
	}
	d := r.dists.place()
	p := lanePair{dist: d, querier: r.qs[d].place()}
	r.assign[src] = p
	return p
}
