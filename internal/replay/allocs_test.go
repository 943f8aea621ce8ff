package replay

import (
	"math"
	"runtime/debug"
	"testing"
	"time"
)

// TestAllocBounds holds the replay engine's allocation bounds. Each row
// names the benchmark that reports the same op under `go test -bench`
// and the most allocations per op, counted as testing.AllocsPerRun
// counts them (truncated to a whole number, as -benchmem prints them).
// The engine rows measure one whole replay and divide by its events.
func TestAllocBounds(t *testing.T) {
	const fabricEvents, loopbackEvents = 100_000, 20_000
	events := benchEvents(t, 4, 1024)
	fabric := fastConfig(fabricServer, echoFabric{})
	sink, stop := startEchoSink(t)
	defer stop()
	loopback := fastConfig(sink, nil)
	timed := timedConfig(sink)
	pq := newPacedQuerier(t)
	const assembled = 100_000
	logs := assemblyLogs(assembled)
	// See BenchmarkReportAssembly: a collection per merge would add the
	// runtime's own allocations to the merge's.
	defer debug.SetGCPercent(debug.SetGCPercent(400))

	for _, r := range []struct {
		bench     string
		max       float64
		runs, ops int
		pooled    bool // the op takes batches from a sync.Pool
		f         func(t *testing.T)
	}{
		{"BenchmarkReplayFastUDP", 0, 1, fabricEvents, true, func(t *testing.T) {
			replayEvents(t, fabric, events, fabricEvents, false)
		}},
		{"BenchmarkReplayFastUDPReference", 1, 1, fabricEvents, true, func(t *testing.T) {
			replayEvents(t, fabric, events, fabricEvents, true)
		}},
		{"BenchmarkReplayFastUDPLoopback", 0, 1, loopbackEvents, true, func(t *testing.T) {
			replayEvents(t, loopback, events, loopbackEvents, false)
		}},
		{"BenchmarkReplayFastUDPLoopbackReference", 1, 1, loopbackEvents, true, func(t *testing.T) {
			replayEvents(t, loopback, events, loopbackEvents, true)
		}},
		{"BenchmarkReplayTimed", 0, 1, loopbackEvents, true, func(t *testing.T) {
			replayEvents(t, timed, events, loopbackEvents, false)
		}},
		{"BenchmarkPacerSleep", 0, 50, 1, false, func(t *testing.T) {
			pq.sleepUntil(time.Since(pq.realStart) + 200*time.Microsecond)
		}},
		{"BenchmarkReportAssembly", 1, 10, 1, false, func(t *testing.T) {
			if len(mergeResults(logs)) != assembled {
				t.Fatal("short merge")
			}
		}},
	} {
		t.Run(r.bench, func(t *testing.T) {
			if r.pooled && raceEnabled {
				t.Skip("the race detector drops sync.Pool puts at random")
			}
			got := math.Floor(testing.AllocsPerRun(r.runs, func() { r.f(t) }) / float64(r.ops))
			if got > r.max {
				t.Errorf("%.0f allocs/op, bound %.0f", got, r.max)
			} else {
				t.Logf("%.0f allocs/op, bound %.0f", got, r.max)
			}
		})
	}
}
