package zone

import (
	"testing"
)

// benchOp is the loop of the parse and query benchmarks: it runs op,
// built by the ...Op function beside the benchmark, b.N times.
// TestAllocBounds counts the same op's allocations, so a benchmark and
// its bound measure one definition of the op.
func benchOp(b *testing.B, op func() error) {
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := op(); err != nil {
			b.Fatal(err)
		}
	}
}

// TestAllocBounds holds the zone package's allocation bounds. Each row
// names the benchmark that reports the same op under `go test -bench`
// and the most allocations per op, counted as testing.AllocsPerRun
// counts them (truncated to a whole number, as -benchmem prints them).
// A parse row's op is one parse of the whole input; a query row's op is
// one z.Query on a name built beforehand. TestStreamParserZeroAlloc
// holds BenchmarkZoneParseStreaming's bound of 0.
func TestAllocBounds(t *testing.T) {
	data, recs := benchZoneText(t)
	z := buildBigZone(t, 10000)

	for _, r := range []struct {
		bench string
		max   float64
		runs  int
		op    func() error
	}{
		{"BenchmarkZoneParseClassic", 859489, 1, classicOp(data)},
		{"BenchmarkZoneParseToZone", 110708, 1, toZoneOp(data)},
		{"BenchmarkZoneParseParallel", 110710, 1, chunkedOp(data, recs)},
		{"BenchmarkZoneParseFlat", 1081354, 1, chunkedOp(flatZoneText(300000), flatRecs)},
		{"BenchmarkQueryPositive", 1, 1000, queryOp(z, positiveNames(), ResultAnswer)},
		{"BenchmarkQueryReferral", 2, 1000, queryOp(z, referralNames(), ResultReferral)},
		{"BenchmarkQueryNXDomain", 2, 1000, queryOp(z, nxdomainNames(), ResultNXDomain)},
	} {
		t.Run(r.bench, func(t *testing.T) {
			got := testing.AllocsPerRun(r.runs, func() {
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
