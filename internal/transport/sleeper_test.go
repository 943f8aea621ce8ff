package transport

import (
	"context"
	"os"
	"slices"
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
