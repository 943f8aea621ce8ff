package replay

import (
	"io"
	"net/netip"
	"time"

	"ldplayer/internal/obs"
	"ldplayer/internal/trace"
)

// Source is the cyclic in-memory input of a load run: event i carries
// wire i mod len(wires) as a UDP query from synthetic source i mod
// sources. The policy of a load run — cycle, rate or window, stop —
// lives here, behind trace.BatchReader, so a load tool drives the
// Engine instead of carrying its own sender.
type Source struct {
	wires   [][]byte
	sources uint64
	count   uint64        // end after this many events; 0 = no bound
	limit   time.Duration // end here on the run's clock; 0 = no bound
	qps     float64       // open loop: event i is due at i/qps

	// Closed loop (qps 0): at most sources events unsettled at once.
	settled func() uint64 // events the engine has finished with
	stall   time.Duration

	handed      uint64
	slab        []trace.Event
	start       time.Time // first look at the window
	forgiven    uint64    // events written off by stalls
	lastSettled uint64
	progressAt  time.Time // last hand-out or change in settled
}

// windowPoll is how long a full window sleeps between looks at the
// engine's counters. The Go scheduler polls the network while it waits
// so short a timer out, so the source runs again right behind the reply
// it waits for (20 µs lets the threads idle and costs a 2-query window
// 3/4 of its loopback rate); a dead target still costs only 1/4 core.
const windowPoll = time.Microsecond

// NewRateSource is the open loop: event i is stamped exactly i/qps
// after the first, for a Timed engine to send on that schedule whether
// or not responses return. It ends after count events or where the
// schedule reaches limit, whichever is set and comes first.
func NewRateSource(wires [][]byte, sources int, qps float64, count int, limit time.Duration) *Source {
	return &Source{wires: wires, sources: uint64(max(sources, 1)), qps: qps, count: uint64(max(count, 0)), limit: limit}
}

// NewWindowSource is the closed loop, for a FastAsPossible engine
// reporting into reg: an event is admitted only while fewer than window
// of those handed out are unsettled by the engine's own replay.responses
// + replay.timeouts + replay.send_errors, so the offered load follows
// the server's service rate. A full window that sees nothing settle for
// stall is written off (the engine names those queries as timeouts when
// it drains), so a dead target cannot hang the run; a query settled
// after it was written off lends the window its slot twice. The source
// has window sources and ends after count events or limit of run time.
func NewWindowSource(wires [][]byte, window int, reg *obs.Registry, stall time.Duration, count int, limit time.Duration) *Source {
	s := NewRateSource(wires, window, 0, count, limit)
	s.stall = stall
	cs := [...]*obs.Counter{reg.Counter("replay.responses"), reg.Counter("replay.timeouts"), reg.Counter("replay.send_errors")}
	base := cs[0].Value() + cs[1].Value() + cs[2].Value() // reg may be long-lived (obs.Default): count from here
	s.settled = func() uint64 { return cs[0].Value() + cs[1].Value() + cs[2].Value() - base }
	return s
}

// Read implements trace.Reader.
func (s *Source) Read() (*trace.Event, error) {
	var one [1]*trace.Event
	_, err := s.ReadBatch(one[:])
	return one[0], err
}

// ReadBatch implements trace.BatchReader: a short count when the window
// has no more room or the end is near, io.EOF once nothing is left.
func (s *Source) ReadBatch(dst []*trace.Event) (int, error) {
	n := len(dst)
	if s.count > 0 {
		n = int(min(uint64(n), s.count-s.handed))
	}
	var at time.Time
	if s.qps == 0 && n > 0 {
		n, at = s.admit(n)
	}
	i := 0
	for ; i < n; i++ {
		if s.qps > 0 {
			off := time.Duration(float64(s.handed) / s.qps * float64(time.Second))
			if s.limit > 0 && off >= s.limit {
				break
			}
			at = time.Unix(0, 0).Add(off) // the engine only looks at offsets from the first
		}
		if len(s.slab) == 0 {
			// One allocation per 64 events, whatever the batch sizes;
			// a slab is garbage once the engine has sent all of it.
			s.slab = make([]trace.Event, 64)
		}
		src := s.handed % s.sources // 10.0.0.0/8, one address per source
		dst[i], s.slab = &s.slab[0], s.slab[1:]
		*dst[i] = trace.Event{
			Time:  at,
			Src:   netip.AddrPortFrom(netip.AddrFrom4([4]byte{10, byte(src >> 16), byte(src >> 8), byte(src)}), 1024),
			Proto: trace.UDP,
			Wire:  s.wires[s.handed%uint64(len(s.wires))],
		}
		s.handed++
	}
	if i == 0 {
		return 0, io.EOF
	}
	return i, nil
}

// admit blocks until the window has room and returns how many of n
// events fit, with the time of the look; none once the limit is up.
func (s *Source) admit(n int) (int, time.Time) {
	for {
		now := time.Now()
		if s.start.IsZero() {
			s.start = now
		}
		if s.limit > 0 && now.Sub(s.start) >= s.limit {
			return 0, now
		}
		settled := s.settled()
		out := max(int64(s.handed-settled-s.forgiven), 0) // below 0: a written-off query was settled after all
		if room := int(s.sources) - int(out); room > 0 {
			s.progressAt = now
			return min(n, room), now
		}
		if settled != s.lastSettled {
			s.lastSettled, s.progressAt = settled, now
		} else if now.Sub(s.progressAt) >= s.stall {
			s.forgiven += uint64(out)
			continue
		}
		time.Sleep(windowPoll)
	}
}
