package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
	"unsafe"
)

// environment is the record of where a result was measured, written
// into every result file so two files can be told apart.
type environment struct {
	Commit      string `json:"commit"`
	GoVersion   string `json:"go_version"`
	CPUModel    string `json:"cpu_model"`
	NumCPU      int    `json:"nproc"`
	GOMAXPROCS  int    `json:"gomaxprocs"`
	Kernel      string `json:"kernel"`
	RmemDefault int    `json:"rmem_default"`
	NoFile      uint64 `json:"rlimit_nofile"`
	Path        string `json:"path"` // "loopback": no link was crossed
}

func readEnvironment(procs int) environment {
	var lim syscall.Rlimit
	_ = syscall.Getrlimit(syscall.RLIMIT_NOFILE, &lim) // a failure leaves 0, which the source-count guard reports
	rmem, _ := strconv.Atoi(firstLine("/proc/sys/net/core/rmem_default"))
	return environment{
		Commit:      gitCommit(),
		GoVersion:   runtime.Version(),
		CPUModel:    procField("/proc/cpuinfo", "model name"),
		NumCPU:      runtime.NumCPU(),
		GOMAXPROCS:  procs,
		Kernel:      firstLine("/proc/sys/kernel/osrelease"),
		RmemDefault: rmem,
		NoFile:      lim.Cur,
		Path:        "loopback",
	}
}

// gitCommit reads HEAD without running git: the driver's checkout is
// not a repository, and then the commit is "unknown".
func gitCommit() string {
	for dir := "."; ; dir = filepath.Join(dir, "..") {
		head := firstLine(filepath.Join(dir, ".git", "HEAD"))
		if head != "" {
			if ref, ok := strings.CutPrefix(head, "ref: "); ok {
				if c := firstLine(filepath.Join(dir, ".git", ref)); c != "" {
					return c
				}
				return ref
			}
			return head
		}
		if abs, err := filepath.Abs(dir); err != nil || abs == "/" {
			return "unknown"
		}
	}
}

func firstLine(path string) string {
	b, err := os.ReadFile(path)
	if err != nil {
		return ""
	}
	line, _, _ := strings.Cut(string(b), "\n")
	return strings.TrimSpace(line)
}

// procField returns the value of the first "key : value" line of a
// /proc file whose key matches.
func procField(path, key string) string {
	f, err := os.Open(path)
	if err != nil {
		return ""
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		k, v, ok := strings.Cut(sc.Text(), ":")
		if ok && strings.TrimSpace(k) == key {
			return strings.TrimSpace(v)
		}
	}
	return ""
}

// checkNoFile refuses a workload whose emulated sources need more
// descriptors than the process may open: each source owns a socket on
// the client side and, over TCP, one more on the server side.
func checkNoFile(env environment, need int) error {
	if env.NoFile < uint64(need) {
		return fmt.Errorf("RLIMIT_NOFILE is %d, the workload's sources need %d descriptors", env.NoFile, need)
	}
	return nil
}

// cpuTime is the CPU time the process has used so far, from the
// scheduler's own nanosecond accounting (CLOCK_PROCESS_CPUTIME_ID).
// getrusage is not used for this: where the kernel charges CPU time by
// sampling at the timer tick, a timer-paced workload wakes in step with
// the tick and its rusage swings by a third from run to run.
func cpuTime() time.Duration {
	const clockProcessCPUTimeID = 2
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockProcessCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		return 0
	}
	return time.Duration(ts.Nano())
}

// sysCPUTime is the system share of the CPU time, which only getrusage
// knows; it feeds an ungated ratio.
func sysCPUTime() (user, sys time.Duration) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, 0
	}
	return time.Duration(ru.Utime.Nano()), time.Duration(ru.Stime.Nano())
}

// peakRSSMB is the process's resident-set high-water mark (VmHWM).
func peakRSSMB() float64 {
	kb, _ := strconv.ParseFloat(strings.TrimSuffix(procField("/proc/self/status", "VmHWM"), " kB"), 64)
	return kb / 1024
}

// udpRcvbufErrors reads the kernel's count of datagrams dropped because
// a UDP receive buffer was full (host-wide, so a delta across a pass).
func udpRcvbufErrors() uint64 {
	f, err := os.Open("/proc/net/snmp")
	if err != nil {
		return 0
	}
	defer f.Close()
	var header []string
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) == 0 || fields[0] != "Udp:" {
			continue
		}
		if header == nil {
			header = fields
			continue
		}
		for i, h := range header {
			if h == "RcvbufErrors" && i < len(fields) {
				v, _ := strconv.ParseUint(fields[i], 10, 64)
				return v
			}
		}
	}
	return 0
}

// softnetDropped sums, over CPUs, the packets the kernel dropped because
// a per-CPU input backlog (which loopback traffic crosses) was full:
// the second column of /proc/net/softnet_stat, in hex.
func softnetDropped() uint64 {
	b, err := os.ReadFile("/proc/net/softnet_stat")
	if err != nil {
		return 0
	}
	var total uint64
	for _, line := range strings.Split(string(b), "\n") {
		if f := strings.Fields(line); len(f) > 1 {
			v, _ := strconv.ParseUint(f[1], 16, 64)
			total += v
		}
	}
	return total
}
