package transport

import (
	"context"
	"math/rand"
	"os"
	"runtime"
	"slices"
	"strconv"
	"syscall"
	"testing"
	"time"
)

// sleeperPaths are the platform's own path and the forced fallback: the
// refusal a full fd table or a seccomp filter produces, injected at the
// constructor. Both must pass the same tests.
var sleeperPaths = []struct {
	name    string
	open    func() (*os.File, uintptr, error)
	wantErr error
}{
	{"platform", openTimerFD, nil},
	{"fallback", func() (*os.File, uintptr, error) { return nil, 0, syscall.EMFILE }, syscall.EMFILE},
}

func eachSleeper(t *testing.T, fn func(t *testing.T, s *Sleeper, cancel context.CancelFunc)) {
	for _, p := range sleeperPaths {
		t.Run(p.name, func(t *testing.T) {
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			s, err := newSleeper(ctx, p.open)
			if err != p.wantErr || (err != nil && s.f != nil) {
				t.Fatalf("newSleeper: err=%v (want %v), timer fd in use: %v", err, p.wantErr, s.f != nil)
			}
			defer s.Close()
			fn(t, s, cancel)
		})
	}
}

// TestSleeperNeverEarly: 200 waits of 100–900 µs never return early on
// either path, and the timerfd path wakes close to its deadline (the
// time.Timer path's median here is ~0.6 ms; see Sleeper for why).
func TestSleeperNeverEarly(t *testing.T) {
	eachSleeper(t, func(t *testing.T, s *Sleeper, _ context.CancelFunc) {
		over := make([]time.Duration, 0, 200)
		for i := range 200 {
			d := time.Duration(100+i%9*100) * time.Microsecond
			start := time.Now()
			if !s.Sleep(d) {
				t.Fatal("Sleep reported a dead context")
			}
			o := time.Since(start) - d
			if o < 0 {
				t.Fatalf("wait %d: Sleep(%v) returned %v early", i, d, -o)
			}
			over = append(over, o)
		}
		slices.Sort(over)
		med := over[len(over)/2]
		t.Logf("oversleep p50 %v p99 %v", med, over[len(over)*99/100])
		if s.f != nil && med >= 250*time.Microsecond {
			t.Errorf("median oversleep %v on the timer fd, want < 250µs", med)
		}
	})
}

// TestSleeperCancel: cancelling the context ends a blocked sleep at
// once and fails every later one.
func TestSleeperCancel(t *testing.T) {
	eachSleeper(t, func(t *testing.T, s *Sleeper, cancel context.CancelFunc) {
		const after = 20 * time.Millisecond
		time.AfterFunc(after, cancel)
		start := time.Now()
		if s.Sleep(time.Second) {
			t.Error("Sleep reported a live context after cancel")
		}
		if el := time.Since(start); el > after+50*time.Millisecond {
			t.Errorf("1s sleep cancelled at %v returned at %v, want within 50ms", after, el)
		}
		if s.Sleep(time.Second) || s.Sleep(0) {
			t.Error("Sleep on a dead context must fail immediately")
		}
	})
}

// TestSleepUntilNeverEarly: 10 000 deadlines 0–300 µs out, at
// GOMAXPROCS 1 and 2: no SleepUntil returns, or reports a reading,
// before its deadline, and the margin stays within its bounds.
func TestSleepUntilNeverEarly(t *testing.T) {
	for _, procs := range []int{1, 2} {
		t.Run("GOMAXPROCS="+strconv.Itoa(procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			s, err := NewSleeper(context.Background())
			if err != nil {
				t.Skipf("no timer fd: %v", err)
			}
			defer s.Close()
			rng := rand.New(rand.NewSource(int64(procs)))
			var late []time.Duration
			for i := range 10_000 {
				deadline := time.Now().Add(time.Duration(rng.Int63n(int64(300 * time.Microsecond))))
				w, ok := s.SleepUntil(deadline)
				back := time.Now()
				if !ok {
					t.Fatal("SleepUntil reported a dead context")
				}
				if w.At.Before(deadline) || back.Before(deadline) {
					t.Fatalf("deadline %d: woke %v, returned %v early", i, deadline.Sub(w.At), deadline.Sub(back))
				}
				if s.margin < marginStep || s.margin > maxYieldMargin {
					t.Fatalf("deadline %d: margin %v outside [%v, %v]", i, s.margin, marginStep, maxYieldMargin)
				}
				late = append(late, w.At.Sub(deadline))
			}
			slices.Sort(late)
			t.Logf("late p50 %v p99 %v, margin %v", late[len(late)/2], late[len(late)*99/100], s.margin)
		})
	}
}

// TestSleepUntilCancelMidYield: a context cancelled while SleepUntil
// yields ends it within a millisecond, reporting false.
func TestSleepUntilCancelMidYield(t *testing.T) {
	eachSleeper(t, func(t *testing.T, s *Sleeper, cancel context.CancelFunc) {
		s.margin = time.Hour // white box: the whole wait is yielded
		cancelled := make(chan time.Time, 1)
		time.AfterFunc(20*time.Millisecond, func() {
			cancelled <- time.Now()
			cancel()
		})
		if _, ok := s.SleepUntil(time.Now().Add(time.Second)); ok {
			t.Fatal("SleepUntil reported a live context after cancel")
		}
		if el := time.Since(<-cancelled); el > time.Millisecond {
			t.Errorf("yield ended %v after the cancel, want within 1ms", el)
		}
	})
}

// lateTimerFD opens a timer fd whose every expiry reaches the Sleeper
// extra late: a relay goroutine reads the armed timer fd and, extra
// later, writes the expiry into the pipe the Sleeper reads.
func lateTimerFD(t *testing.T, extra time.Duration) func() (*os.File, uintptr, error) {
	return func() (*os.File, uintptr, error) {
		tf, fd, err := openTimerFD()
		if tf == nil {
			t.Skipf("no timer fd: %v", err)
		}
		r, w, err := os.Pipe()
		if err != nil {
			t.Fatal(err)
		}
		done := make(chan struct{})
		t.Cleanup(func() {
			tf.Close()
			<-done
			w.Close()
		})
		go func() {
			defer close(done)
			var b [8]byte
			for {
				if _, err := tf.Read(b[:]); err != nil {
					return
				}
				time.Sleep(extra)
				if _, err := w.Write(b[:]); err != nil {
					return
				}
			}
		}()
		return r, fd, nil
	}
}

// TestSleepUntilLateWakes: when every park wakes past the deadline the
// margin grows to its cap and no further, and no wait ends early.
func TestSleepUntilLateWakes(t *testing.T) {
	s, err := newSleeper(context.Background(), lateTimerFD(t, 2*maxYieldMargin))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for i := range 100 {
		deadline := time.Now().Add(200 * time.Microsecond)
		w, ok := s.SleepUntil(deadline)
		if !ok || w.At.Before(deadline) || time.Now().Before(deadline) {
			t.Fatalf("wait %d: ok=%v, woke %v before its deadline", i, ok, deadline.Sub(w.At))
		}
		if w.Parks != 1 || w.Yield != 0 {
			t.Fatalf("wait %d: %d parks, %v yielded; a late wake parks once and yields nothing", i, w.Parks, w.Yield)
		}
		if s.margin > maxYieldMargin {
			t.Fatalf("wait %d: margin %v over its cap %v", i, s.margin, maxYieldMargin)
		}
	}
	if s.margin != maxYieldMargin {
		t.Errorf("margin %v after 100 late wakes, want its cap %v", s.margin, maxYieldMargin)
	}
}
