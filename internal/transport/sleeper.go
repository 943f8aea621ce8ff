package transport

import (
	"context"
	"os"
	"runtime"
	"time"
)

// Sleeper is a reusable one-shot sleeper for deadline pacing, owned by
// one goroutine. On Linux it arms a CLOCK_MONOTONIC timerfd and Reads
// it: the goroutine parks on the netpoller, its P free for other work,
// and fd readiness wakes it when the hrtimer fires (a raw nanosleep is
// as precise but holds the P until sysmon retakes it, starving an
// in-process peer). Elsewhere it waits on a time.Timer, ~0.5 ms late on
// a mostly idle process: the runtime services timers from the poller's
// wait, whose timeout it rounds up to whole milliseconds.
//
// A park and wake costs several microseconds on an idle core, so
// SleepUntil parks only to just short of a deadline and yields out the
// rest; Sleep is the bare park, and any of its wakes may be late. Once
// ctx is done every wait, present and future, ends at once.
type Sleeper struct {
	ctx   context.Context
	timer *time.Timer // fallback path
	f     *os.File    // the timerfd; nil: every wait rides timer
	// fd is f's descriptor, kept raw for timerfd_settime: File.Fd would
	// make f blocking. Safe: the goroutine that sleeps is the one that closes.
	fd     uintptr
	buf    [8]byte     // the expiration count a fired timerfd reads as
	unhook func() bool // detaches the interrupt below from ctx
	// margin is how far short of its deadline SleepUntil parks, learnt
	// from this Sleeper's own wakes; within [marginStep, maxYieldMargin].
	margin time.Duration
}

// The yield margin's rule. A wake past the deadline grows it by two
// steps, one that had to yield shrinks it by one, so it settles where a
// third of the wakes come late: the median query is sent within a yield
// of its deadline, and the CPU spent yielding stays a few microseconds a
// wait. maxYieldMargin caps the yield, whatever the wakes: a yielding
// goroutine sits on the global run queue, which the scheduler serves
// before it polls the network, so replies landing during a long yield
// wait for it to end.
const (
	marginStep     = time.Microsecond
	maxYieldMargin = 50 * time.Microsecond
)

// NewSleeper returns a Sleeper bound to ctx. The Sleeper is usable even
// with a non-nil error, which says the timerfd was refused (fd limit,
// seccomp) and waits fall back to the time.Timer.
func NewSleeper(ctx context.Context) (*Sleeper, error) { return newSleeper(ctx, openTimerFD) }

func newSleeper(ctx context.Context, open func() (*os.File, uintptr, error)) (*Sleeper, error) {
	// The timer is born spent, fired and drained; Sleep re-arms it.
	s := &Sleeper{ctx: ctx, timer: time.NewTimer(0), margin: marginStep}
	<-s.timer.C
	f, fd, err := open()
	if f != nil {
		s.f, s.fd = f, fd
		s.unhook = context.AfterFunc(ctx, func() {
			//ldp:nolint errcheck — fails only on a closed file, and then nothing is blocked on it
			f.SetReadDeadline(time.Unix(1, 0)) // in the past: fails the blocked Read and every later one
		})
	}
	return s, err
}

// Sleep blocks for d, or for less if ctx ends first; it reports whether
// ctx is still live.
func (s *Sleeper) Sleep(d time.Duration) bool {
	if s.f != nil && d > 0 && armTimerFD(s.fd, d) == nil {
		if _, err := s.f.Read(s.buf[:]); err == nil {
			return true
		}
	}
	if s.ctx.Err() != nil {
		return false
	}
	// No timerfd (or, never observed, it failed mid-run): the runtime
	// timer is late on an idle process but never loses a wait.
	s.timer.Reset(d)
	select {
	case <-s.timer.C:
		return true
	case <-s.ctx.Done():
		s.timer.Stop()
		return false
	}
}

// Wake is what one SleepUntil did.
type Wake struct {
	At    time.Time     // the last clock reading: past the deadline unless ctx ended
	Parks int           // timer arms
	Yield time.Duration // time spent yielding out the rest
}

// SleepUntil blocks until the clock reads deadline or later, and reports
// false if ctx ended first. It parks until deadline − margin (phase 1),
// then runtime.Gosched()s and re-reads the clock until the deadline
// (phase 2), checking ctx on each pass. It never returns early: every
// wake re-reads the clock. Each park's wake moves the margin (see
// maxYieldMargin).
func (s *Sleeper) SleepUntil(deadline time.Time) (Wake, bool) {
	var w Wake
	now := time.Now()
	for park := deadline.Sub(now) - s.margin; park > 0; park = deadline.Sub(now) - s.margin {
		w.Parks++
		if !s.Sleep(park) {
			w.At = now
			return w, false
		}
		now = time.Now()
	}
	if w.Parks > 0 {
		if now.Before(deadline) {
			s.margin = max(s.margin-marginStep, marginStep)
		} else {
			s.margin = min(s.margin+2*marginStep, maxYieldMargin)
		}
	}
	start := now
	for now.Before(deadline) {
		if s.ctx.Err() != nil {
			w.At = now
			return w, false
		}
		runtime.Gosched()
		now = time.Now()
	}
	w.At, w.Yield = now, now.Sub(start)
	return w, true
}

// Close releases the timerfd; the timer is never left pending.
func (s *Sleeper) Close() {
	if s.f != nil {
		s.unhook()
		s.f.Close() //ldp:nolint errcheck — a timerfd holds no data a failed close could lose
	}
}
