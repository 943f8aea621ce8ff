package transport

import (
	"context"
	"os"
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
// Any wake may be late; the caller re-reads the clock. Once ctx is done
// every wait, present and future, ends at once.
type Sleeper struct {
	ctx   context.Context
	timer *time.Timer // fallback path
	f     *os.File    // the timerfd; nil: every wait rides timer
	// fd is f's descriptor, kept raw for timerfd_settime: File.Fd would
	// make f blocking. Safe: the goroutine that sleeps is the one that closes.
	fd     uintptr
	buf    [8]byte     // the expiration count a fired timerfd reads as
	unhook func() bool // detaches the interrupt below from ctx
}

// NewSleeper returns a Sleeper bound to ctx. The Sleeper is usable even
// with a non-nil error, which says the timerfd was refused (fd limit,
// seccomp) and waits fall back to the time.Timer.
func NewSleeper(ctx context.Context) (*Sleeper, error) { return newSleeper(ctx, openTimerFD) }

func newSleeper(ctx context.Context, open func() (*os.File, uintptr, error)) (*Sleeper, error) {
	// The timer is born spent, fired and drained; Sleep re-arms it.
	s := &Sleeper{ctx: ctx, timer: time.NewTimer(0)}
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

// Close releases the timerfd; the timer is never left pending.
func (s *Sleeper) Close() {
	if s.f != nil {
		s.unhook()
		s.f.Close() //ldp:nolint errcheck — a timerfd holds no data a failed close could lose
	}
}
