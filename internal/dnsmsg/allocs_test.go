package dnsmsg

import (
	"testing"
)

// benchOp is the loop of every codec benchmark: it runs op, built by
// the ...Op function beside the benchmark, b.N times. TestAllocBounds
// counts the same op's allocations, so a benchmark and its bound
// measure one definition of the op.
func benchOp(b *testing.B, op func() error) {
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := op(); err != nil {
			b.Fatal(err)
		}
	}
}

// TestAllocBounds holds the codec's allocation bounds. Each row names
// the benchmark that reports the same op under `go test -bench` and the
// most allocations per op, counted as testing.AllocsPerRun counts them
// (truncated to a whole number, as -benchmem prints them).
func TestAllocBounds(t *testing.T) {
	for _, r := range []struct {
		bench string
		max   float64
		op    func(testing.TB) func() error
	}{
		{"BenchmarkMsgPack", 3, packOp},
		{"BenchmarkMsgUnpack", 39, unpackOp},
		{"BenchmarkMsgUnpackPooled", 0, unpackPooledOp},
		{"BenchmarkMsgPackBuffer", 0, packBufferOp},
		{"BenchmarkUnpackName", 4, unpackNameOp},
		{"BenchmarkAppendNameCompressed", 3, appendNameCompressedOp},
		{"BenchmarkCanonicalCompare", 0, canonicalCompareOp},
	} {
		t.Run(r.bench, func(t *testing.T) {
			op := r.op(t)
			got := testing.AllocsPerRun(100, func() {
				if err := op(); err != nil {
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
