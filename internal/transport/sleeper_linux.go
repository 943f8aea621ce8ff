//go:build linux && (amd64 || arm64)

package transport

import (
	"os"
	"syscall"
	"time"
	"unsafe"
)

// clockMonotonic is CLOCK_MONOTONIC, which package syscall never named.
// TFD_NONBLOCK and TFD_CLOEXEC are the O_* values by definition.
const clockMonotonic = 1

// openTimerFD creates Sleeper's non-blocking timerfd and wraps it in a
// pollable os.File.
func openTimerFD() (*os.File, uintptr, error) {
	fd, _, e := syscall.Syscall(syscall.SYS_TIMERFD_CREATE, clockMonotonic, syscall.O_NONBLOCK|syscall.O_CLOEXEC, 0)
	if e != 0 {
		return nil, 0, os.NewSyscallError("timerfd_create", e)
	}
	return os.NewFile(fd, "timerfd"), fd, nil
}

// armTimerFD sets the timer to fire once, d (> 0) from now.
func armTimerFD(fd uintptr, d time.Duration) error {
	// struct itimerspec{it_interval, it_value}; a zero interval is one-shot.
	spec := [2]syscall.Timespec{1: syscall.NsecToTimespec(int64(d))}
	if _, _, e := syscall.Syscall6(syscall.SYS_TIMERFD_SETTIME, fd, 0, uintptr(unsafe.Pointer(&spec)), 0, 0, 0); e != 0 {
		return os.NewSyscallError("timerfd_settime", e)
	}
	return nil
}
