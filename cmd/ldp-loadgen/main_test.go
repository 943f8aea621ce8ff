package main

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"regexp"
	"testing"
	"time"

	"ldplayer/internal/obs"
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

var reportRe = regexp.MustCompile(`sent (\d+), received (\d+), timeouts (\d+)`)

// TestLoadgenE2E: closed loop and open loop against a live sharded
// server; everything sent must come back answered, and the run is
// accounted under the replay engine's series.
func TestLoadgenE2E(t *testing.T) {
	addr := startServer(t)
	for _, qps := range []float64{0, 1000} {
		var out bytes.Buffer
		reg := obs.NewRegistry()
		start := time.Now()
		err := run(context.Background(), options{
			target:   addr,
			qps:      qps,
			conc:     2,
			count:    100,
			timeout:  5 * time.Second,
			workload: "syn",
			domain:   "example.com.",
			reg:      reg,
		}, &out)
		if err != nil {
			t.Fatalf("qps=%v: run: %v\n%s", qps, err, out.String())
		}
		m := reportRe.FindStringSubmatch(out.String())
		if m == nil {
			t.Fatalf("qps=%v: report line missing:\n%s", qps, out.String())
		}
		if m[1] != "100" || m[2] != "100" {
			t.Fatalf("qps=%v: want 100 sent and received:\n%s", qps, out.String())
		}
		for _, want := range []string{"qps/core", "p50", "p99"} {
			if !bytes.Contains(out.Bytes(), []byte(want)) {
				t.Fatalf("qps=%v: report missing %q:\n%s", qps, want, out.String())
			}
		}
		snap := reg.Snapshot()
		if snap.Counters["replay.sent"] != 100 || snap.Counters["replay.responses"] != 100 ||
			snap.Histograms["replay.rtt_seconds"].Count != 100 {
			t.Fatalf("qps=%v: registry has sent=%d responses=%d rtt samples=%d, want 100 each", qps,
				snap.Counters["replay.sent"], snap.Counters["replay.responses"], snap.Histograms["replay.rtt_seconds"].Count)
		}
		// 100 queries at 1000 q/s are 99 ms of schedule: catch an open
		// loop that ignores its pacing.
		if took := time.Since(start); qps > 0 && took < 90*time.Millisecond {
			t.Fatalf("qps=%v: finished in %v; pacing not applied", qps, took)
		}
	}
}

// TestLoadgenTimeoutsCounted: a socket nothing answers. Every query is
// sent, none is answered, each is a timeout — and the closed loop's
// window is released rather than hanging on the first unanswered query.
func TestLoadgenTimeoutsCounted(t *testing.T) {
	dead, _, err := transport.ListenUDP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer dead.Close()
	for _, qps := range []float64{0, 1000} {
		var out bytes.Buffer
		err := run(context.Background(), options{
			target:   transport.AddrPortOf(dead.LocalAddr()).String(),
			qps:      qps,
			conc:     1,
			count:    3,
			timeout:  50 * time.Millisecond,
			workload: "syn",
			domain:   "example.com.",
		}, &out)
		if err != nil {
			t.Fatalf("qps=%v: run: %v\n%s", qps, err, out.String())
		}
		if m := reportRe.FindStringSubmatch(out.String()); m == nil || m[1] != "3" || m[2] != "0" || m[3] != "3" {
			t.Fatalf("qps=%v: want sent 3, received 0, timeouts 3:\n%s", qps, out.String())
		}
	}
}

// TestLoadgenTraceInput drives queries from a trace file on disk.
func TestLoadgenTraceInput(t *testing.T) {
	addr := startServer(t)
	tr := workload.Synthetic(workload.SyntheticConfig{
		InterArrival: time.Millisecond,
		Duration:     20 * time.Millisecond,
		Domain:       "example.com.",
	})
	path := filepath.Join(t.TempDir(), "queries.txt")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	tw := trace.NewTextWriter(f)
	if err := trace.WriteAll(tw, tr); err != nil {
		t.Fatal(err)
	}
	if err := tw.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	var out bytes.Buffer
	err = run(context.Background(), options{
		target:  addr,
		conc:    1,
		count:   20,
		timeout: 5 * time.Second,
		trace:   path,
		reg:     obs.NewRegistry(),
	}, &out)
	if err != nil {
		t.Fatalf("run: %v\n%s", err, out.String())
	}
	m := reportRe.FindStringSubmatch(out.String())
	if m == nil || m[1] != "20" || m[2] != "20" {
		t.Fatalf("want 20 sent and received:\n%s", out.String())
	}
}

// TestLoadgenValidation: option errors surface as errors, not exits.
func TestLoadgenValidation(t *testing.T) {
	cases := []options{
		{target: "127.0.0.1:5300"},                                   // no stop condition
		{target: "not-an-addr", count: 1},                            // bad target
		{target: "127.0.0.1:5300", count: 1, workload: "nope"},       // bad workload
		{target: "127.0.0.1:5300", count: 1, trace: "/no/such/file"}, // bad trace
	}
	for i, opts := range cases {
		if err := run(context.Background(), opts, &bytes.Buffer{}); err == nil {
			t.Errorf("case %d: no error", i)
		}
	}
}
