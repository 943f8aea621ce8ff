package replay

import (
	"context"
	"time"
)

// wheel paces a Timed querier with one reusable timer over discrete
// buckets instead of a fresh time.NewTimer per query. Offsets quantize
// to bucket edges by rounding UP (never down: a query may go out up to
// one granule late, never early), so every query in a granule shares a
// single timer fire — at the 250µs granule, a 100 kq/s lane pays
// ~4k timer operations per second instead of 100k, and a lane running
// behind schedule pays none at all (the deadline already passed).
//
// The paper's delay compensation is unchanged: the bucket deadline is
// computed against the controller's realStart epoch, so distribution
// delay is still absorbed (ΔTᵢ = Δt̄ᵢ − Δtᵢ), just at bucket resolution.
type wheel struct {
	gran  time.Duration
	timer *time.Timer
}

// pacingGranularity is the bucket width every Timed querier runs.
const pacingGranularity = 250 * time.Microsecond

func newWheel(gran time.Duration) *wheel { return &wheel{gran: gran} }

// bucket rounds a trace offset up to its bucket edge.
func (w *wheel) bucket(offset time.Duration) time.Duration {
	if w.gran <= 0 {
		return offset
	}
	return (offset + w.gran - 1) / w.gran * w.gran
}

// sleepUntil blocks until the bucket deadline for offset (measured from
// start), returning false if ctx ended first. Queries already due — the
// common case for every bucket-mate after the first — return
// immediately with no timer traffic.
func (w *wheel) sleepUntil(ctx context.Context, start time.Time, offset time.Duration) bool {
	wait := time.Until(start.Add(w.bucket(offset)))
	if wait <= 0 {
		return true
	}
	return w.sleep(ctx, wait)
}

// sleep blocks for d on the wheel's reusable timer.
func (w *wheel) sleep(ctx context.Context, d time.Duration) bool {
	if w.timer == nil {
		w.timer = time.NewTimer(d)
	} else {
		w.timer.Reset(d)
	}
	select {
	case <-w.timer.C:
		return true
	case <-ctx.Done():
		if !w.timer.Stop() {
			<-w.timer.C // drain so the next Reset starts clean
		}
		return false
	}
}

// stop releases the timer.
func (w *wheel) stop() {
	if w.timer != nil {
		w.timer.Stop()
	}
}
