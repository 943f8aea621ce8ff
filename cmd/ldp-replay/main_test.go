package main

import (
	"bytes"
	"context"
	"flag"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"ldplayer/internal/obs"
	"ldplayer/internal/pcap"
	"ldplayer/internal/replay"
	"ldplayer/internal/server"
	"ldplayer/internal/trace"
	"ldplayer/internal/transport"
	"ldplayer/internal/workload"
	"ldplayer/internal/zone"
)

const testZone = `
$ORIGIN example.com.
$TTL 3600
@ IN SOA ns1 admin 1 7200 3600 1209600 300
@ IN NS ns1
ns1 IN A 192.0.2.53
www IN A 192.0.2.80
* IN A 192.0.2.99
`

// startServer boots a sharded server on loopback for the smoke tests.
func startServer(t *testing.T) string {
	t.Helper()
	z, err := zone.ParseString(testZone, "")
	if err != nil {
		t.Fatal(err)
	}
	srv := server.New(server.Config{UDPWorkers: 2})
	if err := srv.AddZone(z); err != nil {
		t.Fatal(err)
	}
	conns, addr, err := transport.ListenUDPReusePort("127.0.0.1:0", 2)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		srv.ServeUDPShards(ctx, conns) // test server; exit races the drain below
	}()
	t.Cleanup(func() {
		cancel()
		<-done
		for _, c := range conns {
			c.Close()
		}
	})
	return addr.String()
}

// writeQueries writes a synthetic query trace under example.com. to a
// file named name, in the format its extension names, and returns its
// path: the input `ldp-trace gen -model synthetic` would give.
func writeQueries(t *testing.T, name string, n int) string {
	t.Helper()
	tr := workload.Synthetic(workload.SyntheticConfig{
		InterArrival: time.Millisecond,
		Duration:     time.Duration(n) * time.Millisecond,
		Domain:       "example.com.",
	})
	path := filepath.Join(t.TempDir(), name)
	format, err := pcap.FormatOf(path)
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	w := format.NewWriter(f)
	if err := trace.WriteAll(w, tr); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

// runArgs runs the command on args, with the flag defaults main has, and
// returns its report.
func runArgs(t *testing.T, reg *obs.Registry, args ...string) (string, error) {
	t.Helper()
	fs := flag.NewFlagSet("ldp-replay", flag.ContinueOnError)
	o := bindFlags(fs)
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	o.reg = reg
	var out bytes.Buffer
	err := run(context.Background(), *o, &out)
	return out.String(), err
}

var reportRe = regexp.MustCompile(`sent:\s+(\d+) queries.*\nresponses:\s+(\d+) \((\d+) timed out\)`)

// TestCyclicE2E: a closed-loop and an open-loop load run against a live
// sharded server; everything sent must come back answered, and the run
// is accounted under the replay engine's series.
func TestCyclicE2E(t *testing.T) {
	addr := startServer(t)
	input := writeQueries(t, "syn.ldpb", 200)
	for _, loop := range [][]string{{"-drop-results"}, {"-qps", "1000"}} {
		reg := obs.NewRegistry()
		start := time.Now()
		out, err := runArgs(t, reg, append([]string{"-input", input, "-target", addr,
			"-conc", "2", "-count", "100", "-timeout", "5s"}, loop...)...)
		if err != nil {
			t.Fatalf("%v: run: %v\n%s", loop, err, out)
		}
		m := reportRe.FindStringSubmatch(out)
		if m == nil {
			t.Fatalf("%v: report lines missing:\n%s", loop, out)
		}
		if m[1] != "100" || m[2] != "100" {
			t.Fatalf("%v: want 100 sent and answered:\n%s", loop, out)
		}
		for _, want := range []string{"qps/core", "p50", "p99"} {
			if !strings.Contains(out, want) {
				t.Fatalf("%v: report missing %q:\n%s", loop, want, out)
			}
		}
		snap := reg.Snapshot()
		if snap.Counters["replay.sent"] != 100 || snap.Counters["replay.responses"] != 100 ||
			snap.Histograms["replay.rtt_seconds"].Count != 100 {
			t.Fatalf("%v: registry has sent=%d responses=%d rtt samples=%d, want 100 each", loop,
				snap.Counters["replay.sent"], snap.Counters["replay.responses"], snap.Histograms["replay.rtt_seconds"].Count)
		}
		// 100 queries at 1000 q/s are 99 ms of schedule: catch an open
		// loop that ignores its pacing.
		if took := time.Since(start); loop[0] == "-qps" && took < 90*time.Millisecond {
			t.Fatalf("%v: finished in %v; pacing not applied", loop, took)
		}
	}
}

// TestCyclicTimeoutsCounted: a socket nothing answers. Every query is
// sent, none is answered, each is a timeout — and the closed loop's
// window is released rather than hanging on the first unanswered query.
func TestCyclicTimeoutsCounted(t *testing.T) {
	dead, _, err := transport.ListenUDP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer dead.Close()
	input := writeQueries(t, "syn.ldpb", 10)
	for _, qps := range []string{"0", "1000"} {
		out, err := runArgs(t, nil, "-input", input, "-target", transport.AddrPortOf(dead.LocalAddr()).String(),
			"-conc", "1", "-qps", qps, "-count", "3", "-timeout", "50ms")
		if err != nil {
			t.Fatalf("qps=%s: run: %v\n%s", qps, err, out)
		}
		if m := reportRe.FindStringSubmatch(out); m == nil || m[1] != "3" || m[2] != "0" || m[3] != "3" {
			t.Fatalf("qps=%s: want sent 3, answered 0, timeouts 3:\n%s", qps, out)
		}
	}
}

// TestCyclicTraceInput drives a load run from a query trace in each
// text format; a .pcap input must not be decoded as binary.
func TestCyclicTraceInput(t *testing.T) {
	addr := startServer(t)
	for _, name := range []string{"queries.txt", "queries.pcap"} {
		out, err := runArgs(t, obs.NewRegistry(), "-input", writeQueries(t, name, 20), "-target", addr,
			"-conc", "1", "-count", "20", "-timeout", "5s")
		if err != nil {
			t.Fatalf("%s: run: %v\n%s", name, err, out)
		}
		if m := reportRe.FindStringSubmatch(out); m == nil || m[1] != "20" || m[2] != "20" {
			t.Fatalf("%s: want 20 sent and answered:\n%s", name, out)
		}
	}
}

// TestCyclicValidation: option errors surface as errors, not exits, and
// a flag a load run cannot apply is refused rather than ignored.
func TestCyclicValidation(t *testing.T) {
	input := writeQueries(t, "syn.ldpb", 10)
	load := []string{"-input", input, "-target", "127.0.0.1:5300", "-conc", "1", "-count", "1"}
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-input", input, "-target", "127.0.0.1:5300", "-conc", "1"}, "-count or -duration"},
		{[]string{"-input", input, "-target", "127.0.0.1:5300", "-count", "1"}, "add -conc or -qps"},
		{[]string{"-input", input, "-target", "not-an-addr", "-conc", "1", "-count", "1"}, "-target"},
		{[]string{"-input", "/no/such/file", "-target", "127.0.0.1:5300", "-conc", "1", "-count", "1"}, "no such file"},
		{[]string{"-input", input + ".pcapng", "-target", "127.0.0.1:5300", "-conc", "1", "-count", "1"}, "unknown trace extension"},
		{append([]string{"-force-protocol", "tcp"}, load...), "UDP only"},
		{append([]string{"-tls-insecure"}, load...), "UDP only"},
		{append([]string{"-fast"}, load...), "-fast"},
		{append([]string{"-role", "client", "-controller", "127.0.0.1:9053"}, load...), "standalone role"},
		{append([]string{"-timeout", "0s"}, load...), "-timeout"},
		{[]string{"-role", "relay"}, "unknown role"},
	} {
		if _, err := runArgs(t, nil, tc.args...); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%v: got error %v, want one naming %q", tc.args, err, tc.want)
		}
	}
}

// TestReportTiming: the timing line gives the send-time error's p50 and
// p99, from the results (with the worst, early or late) or, results
// dropped, from the send-lag histogram; durations print to 100 ns below
// 10 µs and to 1 µs above.
func TestReportTiming(t *testing.T) {
	for s, want := range map[float64]string{0.43e-6: "400ns", 7.36e-6: "7.4µs", 31.4e-6: "31µs", 1.2345e-3: "1.235ms"} {
		if got := fmtSecs(s); got != want {
			t.Errorf("fmtSecs(%v) = %s, want %s", s, got, want)
		}
	}
	kept := &replay.Report{}
	for i := range 99 {
		at := time.Duration(i) * time.Millisecond
		kept.Results = append(kept.Results, replay.QueryResult{TraceOffset: at, SentOffset: at + 400*time.Nanosecond, RTT: -1})
	}
	kept.Results = append(kept.Results,
		replay.QueryResult{TraceOffset: time.Second, SentOffset: time.Second - 12300*time.Nanosecond, RTT: -1},
		replay.QueryResult{TraceOffset: 2 * time.Second, SentOffset: 2*time.Second + 35*time.Microsecond, RTT: -1})
	dropped, reg := &replay.Report{}, obs.NewRegistry()
	lag := reg.Histogram("replay.send_lag_seconds", obs.FineLatencyBuckets)
	for range 99 {
		lag.ObserveDuration(400 * time.Nanosecond)
	}
	lag.ObserveDuration(7 * time.Microsecond)
	for _, tc := range []struct {
		name string
		rep  *replay.Report
		want string
	}{
		{"results", kept, "timing:      send-time error p50 400ns  p99 12µs  worst 35µs\n"},
		{"histogram", dropped, "timing:      send-time error p50 400ns  p99 500ns\n"},
	} {
		var out strings.Builder
		if err := printReport(&out, tc.rep, reg); err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(out.String(), tc.want) {
			t.Errorf("%s: report lacks %q:\n%s", tc.name, tc.want, out.String())
		}
	}
}
