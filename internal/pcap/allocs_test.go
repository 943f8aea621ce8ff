package pcap

import (
	"testing"
)

// benchOp is the loop of the read benchmarks: it runs op, built by
// scanOp, b.N times. TestAllocBounds and
// TestReadZeroCopySteadyStateAllocs count the same op's allocations.
func benchOp(b *testing.B, op func() error) {
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := op(); err != nil {
			b.Fatal(err)
		}
	}
}

// TestAllocBounds holds the pcap reader's allocation bounds. Each row
// names the benchmark that reports the same op under `go test -bench`
// and the most allocations per op, counted as testing.AllocsPerRun
// counts them (truncated to a whole number, as -benchmem prints them).
// An op is one scan of a 4096-packet capture.
// TestReadZeroCopySteadyStateAllocs holds BenchmarkPCAPReadZeroCopy's
// bound.
func TestAllocBounds(t *testing.T) {
	capture := benchCapture(t)

	for _, r := range []struct {
		bench string
		max   float64
		op    func() error
	}{
		{"BenchmarkPCAPRead", 4918, scanOp(capture, false)},
	} {
		t.Run(r.bench, func(t *testing.T) {
			got := testing.AllocsPerRun(10, func() {
				if err := r.op(); err != nil {
					t.Fatal(err)
				}
			})
			if got > r.max {
				t.Errorf("%.0f allocs/op, bound %.0f", got, r.max)
			} else {
				t.Logf("%.0f allocs/op, bound %.0f", got, r.max)
			}
		})
	}
}
