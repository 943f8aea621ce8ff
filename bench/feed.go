package main

import (
	"io"
	"sync/atomic"
	"time"

	"ldplayer/internal/trace"
)

// sampleEvery is the tracing rate: one query in sampleEvery is stamped
// at every seam of the traced pass.
const sampleEvery = 64

// marker is what the traced pass hangs on a feed: it is told of every
// sampleEvery-th event just before the replay engine receives it.
// handout and due are offsets from the first hand-out. It returns the
// event to hand out in its place (a marked copy).
type marker func(ev *trace.Event, handout, due time.Duration) *trace.Event

// scheduleReader is the single feeding goroutine's view of a timed
// workload: it streams the trace file through whatever reader chain the
// workload uses and hands batches to the replay engine, counting every
// event as attempted and noting how late it ever ran against the trace
// schedule. It adds nothing to the events.
type scheduleReader struct {
	src  trace.BatchReader
	mark marker // nil on the untraced pass

	handed atomic.Uint64
	seq    uint64

	start      time.Time // first hand-out
	firstTrace time.Time // trace time of the first event
	lateMax    time.Duration
	busy       time.Duration // time spent inside src
}

func (r *scheduleReader) Read() (*trace.Event, error) { return readOne(r) }

// readOne is Read for a reader whose real work is in ReadBatch.
func readOne(r trace.BatchReader) (*trace.Event, error) {
	var one [1]*trace.Event
	if _, err := r.ReadBatch(one[:]); err != nil {
		return nil, err
	}
	return one[0], nil
}

func (r *scheduleReader) ReadBatch(dst []*trace.Event) (int, error) {
	t0 := time.Now()
	n, err := r.src.ReadBatch(dst)
	now := time.Now()
	r.busy += now.Sub(t0)
	if n == 0 {
		return 0, err
	}
	if r.start.IsZero() {
		r.start, r.firstTrace = now, dst[0].Time
	}
	handout := now.Sub(r.start)
	// The batch's first event is the one due soonest, so it is the one
	// the feed is latest for.
	if late := handout - dst[0].Time.Sub(r.firstTrace); late > r.lateMax {
		r.lateMax = late
	}
	if r.mark != nil {
		for i, ev := range dst[:n] {
			r.seq++
			if r.seq%sampleEvery == 0 {
				dst[i] = r.mark(ev, handout, ev.Time.Sub(r.firstTrace))
			}
		}
	}
	r.handed.Add(uint64(n))
	return n, err
}

// windowFeed is the fast workload's closed loop: it cycles a fixed set
// of events and admits one only while fewer than window of the events
// it handed out are unaccounted for, reading the replay engine's own
// counters. An unwindowed fast replay overruns the loopback receive
// buffer and loses most of what it sends, so that a faster sender
// would raise the failed share; the window turns freed CPU on either
// side into answered queries instead. While the window is full the
// feed sleeps between looks at the counters; it never spins.
type windowFeed struct {
	events []*trace.Event // cycled in order
	window int
	// settled reads how many handed events the engine has finished
	// with (responses + send errors), sent how many it has written.
	settled, sent  func() uint64
	warmup, length time.Duration // measured window is [warmup, warmup+length)
	stallAfter     time.Duration // a full window with no progress this long is written off
	poll           time.Duration
	mark           marker

	handed atomic.Uint64

	start        time.Time
	next         int
	forgiven     uint64 // events written off by stalls; the engine reports them as timeouts when it drains
	stalls       int
	lastSettled  uint64
	lastProgress time.Time

	// marks remember when each admission happened; the two cursors turn
	// them into latency (hand-out to settled) and send-lag (hand-out to
	// written) samples as the counters pass them.
	marks            []feedMark
	latHead, lagHead int
	latency, lag     []sample
}

type feedMark struct {
	upTo uint64 // handed count after this admission
	at   time.Duration
}

func (f *windowFeed) Read() (*trace.Event, error) { return readOne(f) }

func (f *windowFeed) ReadBatch(dst []*trace.Event) (int, error) {
	if f.start.IsZero() {
		f.start = time.Now()
		f.lastProgress = f.start
	}
	for {
		now := time.Now()
		elapsed := now.Sub(f.start)
		if elapsed >= f.warmup+f.length {
			return 0, io.EOF
		}
		settled := f.settled()
		f.observe(settled, elapsed)
		handed := f.handed.Load()
		out := int(int64(handed) - int64(settled) - int64(f.forgiven))
		if out < 0 {
			out = 0 // a written-off event was answered after all
		}
		if room := f.window - out; room > 0 {
			n := min(room, len(dst))
			for i := 0; i < n; i++ {
				ev := f.events[f.next]
				f.next = (f.next + 1) % len(f.events)
				if f.mark != nil && (handed+uint64(i)+1)%sampleEvery == 0 {
					ev = f.mark(ev, elapsed, elapsed)
				}
				dst[i] = ev
			}
			f.handed.Store(handed + uint64(n))
			f.marks = append(f.marks, feedMark{upTo: handed + uint64(n), at: elapsed})
			return n, nil
		}
		if settled != f.lastSettled {
			f.lastSettled, f.lastProgress = settled, now
		} else if now.Sub(f.lastProgress) >= f.stallAfter {
			// Nothing came back for a whole stall period: the
			// outstanding events are lost. Release the window and let
			// the engine's drain name them as timeouts.
			f.forgiven += uint64(out)
			f.stalls++
			f.lastProgress = now
			continue
		}
		time.Sleep(f.poll)
	}
}

// observe advances the mark cursors past what the counters now cover.
func (f *windowFeed) observe(settled uint64, elapsed time.Duration) {
	if f.lagHead < len(f.marks) {
		sent := f.sent()
		for f.lagHead < len(f.marks) && f.marks[f.lagHead].upTo <= sent {
			m := f.marks[f.lagHead]
			f.lag = append(f.lag, sample{at: m.at, us: float64(elapsed-m.at) / 1e3})
			f.lagHead++
		}
	}
	covered := settled + f.forgiven
	for f.latHead < len(f.marks) && f.marks[f.latHead].upTo <= covered {
		m := f.marks[f.latHead]
		f.latency = append(f.latency, sample{at: m.at, us: float64(elapsed-m.at) / 1e3})
		f.latHead++
	}
}
