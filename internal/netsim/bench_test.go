package netsim

import (
	"testing"
	"time"

	"ldplayer/internal/mutate"
	"ldplayer/internal/trace"
	"ldplayer/internal/workload"
)

// benchCluster is the run BenchmarkRunCluster repeats: a B-Root-model
// all-TCP trace through a 4-site anycast cluster.
func benchCluster(tb testing.TB) (*trace.Trace, RunClusterConfig) {
	tr := workload.BRootModel(workload.BRootConfig{
		Duration:   60 * time.Second,
		MedianRate: 150,
		Clients:    400,
		Seed:       42,
	})
	allTCP, err := mutate.Apply(tr, mutate.ForceProtocol(trace.TCP))
	if err != nil {
		tb.Fatal(err)
	}
	return allTCP, RunClusterConfig{
		ClusterConfig: ClusterConfig{
			Sites: 4,
			Route: UniformCatchment(4, 7),
		},
		SampleEvery: 10 * time.Second,
	}
}

// BenchmarkRunCluster replays benchCluster's trace once per iteration.
// The cluster engine schedules queries with one pre-bound handler +
// AtArg, so allocations must stay proportional to trace size (events +
// connection state), not to site count or to per-query scheduling;
// TestAllocBounds holds that bound.
func BenchmarkRunCluster(b *testing.B) {
	allTCP, cfg := benchCluster(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep := RunCluster(allTCP, cfg)
		if rep.Aggregate.Queries == 0 {
			b.Fatal("no queries served")
		}
	}
}
