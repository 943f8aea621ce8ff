package server

// The serve benchmarks measure the full UDP pipeline — kernel socket,
// batched reads, shard dispatch, answer cache, batched writes — driven
// closed-loop by the replay engine behind a replay.NewWindowSource (what
// ldp-loadgen runs), and report achieved qps and qps per schedulable
// core. Sharded vs single-pipeline is the tentpole comparison: on a
// multi-core host the sharded figure should scale with GOMAXPROCS while
// single-pipeline stays flat.

import (
	"context"
	"runtime"
	"testing"
	"time"

	"ldplayer/internal/dnsmsg"
	"ldplayer/internal/obs"
	"ldplayer/internal/replay"
	"ldplayer/internal/transport"
)

// benchQueries is a small cycled set so the answer cache serves the
// steady state — the paper's repeat-heavy authoritative traffic shape.
func benchQueries(tb testing.TB) [][]byte {
	tb.Helper()
	names := []dnsmsg.Name{"www.example.com.", "ns1.example.com.", "example.com."}
	var qs [][]byte
	for _, n := range names {
		m := &dnsmsg.Msg{}
		m.SetQuestion(n, dnsmsg.TypeA)
		wire, err := m.Pack()
		if err != nil {
			tb.Fatal(err)
		}
		qs = append(qs, wire)
	}
	return qs
}

// serveUDPRig starts a server on shards SO_REUSEPORT sockets, stopped
// at tb's cleanup, and returns a function that sends n queries
// through the replay engine and checks that every one was answered.
func serveUDPRig(tb testing.TB, shards int) func(tb testing.TB, n int) {
	srv := New(Config{UDPWorkers: shards})
	if err := srv.AddZone(mustParse(tb, exampleComZone)); err != nil {
		tb.Fatal(err)
	}
	conns, addr, err := transport.ListenUDPReusePort("127.0.0.1:0", shards)
	if err != nil {
		tb.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		srv.ServeUDPShards(ctx, conns) //ldp:nolint errcheck — benchmark server; exit races the drain below
	}()
	tb.Cleanup(func() {
		cancel()
		<-done
		for _, c := range conns {
			c.Close()
		}
	})

	reg := obs.NewRegistry()
	eng, err := replay.New(replay.Config{
		Server:                 addr,
		QueriersPerDistributor: max(2, shards),
		Mode:                   replay.FastAsPossible,
		DropResults:            true,
		ResponseTimeout:        5 * time.Second,
		Obs:                    reg,
	})
	if err != nil {
		tb.Fatal(err)
	}
	queries := benchQueries(tb)
	return func(tb testing.TB, n int) {
		// 64 outstanding: enough to keep every shard's read batches
		// filled (the figure is the service rate, not a round trip's
		// latency), well under the ~270 small datagrams a default
		// receive buffer holds.
		src := replay.NewWindowSource(queries, 64, reg, 5*time.Second, n, 0)
		rep, err := eng.Run(ctx, src)
		if err != nil {
			tb.Fatal(err)
		}
		if rep.Responses != uint64(n) {
			tb.Fatalf("lost queries on loopback: sent=%d received=%d timeouts=%d", rep.Sent, rep.Responses, rep.Timeouts)
		}
	}
}

func benchServeUDP(b *testing.B, shards int) {
	run := serveUDPRig(b, shards)
	b.ReportAllocs()
	b.ResetTimer()
	run(b, b.N)
	b.StopTimer()
	qps := float64(b.N) / b.Elapsed().Seconds()
	b.ReportMetric(qps, "qps")
	b.ReportMetric(qps/float64(runtime.GOMAXPROCS(0)), "qps/core")
}

// BenchmarkServeUDPSharded is the headline number: one shard per
// schedulable core, each with its own SO_REUSEPORT socket.
func BenchmarkServeUDPSharded(b *testing.B) {
	benchServeUDP(b, runtime.GOMAXPROCS(0))
}

// BenchmarkServeUDPSinglePipeline is the baseline the sharded figure is
// compared against: one shard, one socket.
func BenchmarkServeUDPSinglePipeline(b *testing.B) {
	benchServeUDP(b, 1)
}
