//go:build !linux || !(amd64 || arm64)

package transport

import (
	"os"
	"time"
)

// No timerfd: every Sleeper waits on its time.Timer.
func openTimerFD() (*os.File, uintptr, error) { return nil, 0, nil }

func armTimerFD(uintptr, time.Duration) error { panic("unreachable") }
