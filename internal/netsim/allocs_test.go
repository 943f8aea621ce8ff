package netsim

import "testing"

// TestAllocBounds holds the cluster engine's allocation bound. Each row
// names the benchmark that reports the same op under `go test -bench`
// and the most allocations per op, counted as testing.AllocsPerRun
// counts them (truncated to a whole number, as -benchmem prints them).
// An op is one whole RunCluster over benchCluster's trace.
func TestAllocBounds(t *testing.T) {
	allTCP, cfg := benchCluster(t)

	for _, r := range []struct {
		bench string
		max   float64
		f     func(t *testing.T)
	}{
		{"BenchmarkRunCluster", 843, func(t *testing.T) {
			if rep := RunCluster(allTCP, cfg); rep.Aggregate.Queries == 0 {
				t.Fatal("no queries served")
			}
		}},
	} {
		t.Run(r.bench, func(t *testing.T) {
			if got := testing.AllocsPerRun(1, func() { r.f(t) }); got > r.max {
				t.Errorf("%.0f allocs/op, bound %.0f", got, r.max)
			} else {
				t.Logf("%.0f allocs/op, bound %.0f", got, r.max)
			}
		})
	}
}
