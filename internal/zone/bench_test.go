package zone

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"runtime"
	"testing"
	"time"

	"ldplayer/internal/dnsmsg"
)

// buildBigZone creates a zone with n leaf names plus delegations, the
// shape a TLD zone has.
func buildBigZone(b testing.TB, n int) *Zone {
	b.Helper()
	z := New("bench.test.")
	mustAdd := func(rr dnsmsg.RR) {
		if err := z.Add(rr); err != nil {
			b.Fatal(err)
		}
	}
	mustAdd(dnsmsg.RR{Name: "bench.test.", Type: dnsmsg.TypeSOA, Class: dnsmsg.ClassINET, TTL: 60,
		Data: dnsmsg.SOA{MName: "ns.bench.test.", RName: "h.bench.test.", Serial: 1, Refresh: 1, Retry: 1, Expire: 1, Minimum: 60}})
	mustAdd(dnsmsg.RR{Name: "bench.test.", Type: dnsmsg.TypeNS, Class: dnsmsg.ClassINET, TTL: 60,
		Data: dnsmsg.NS{Host: "ns.bench.test."}})
	for i := 0; i < n; i++ {
		name := dnsmsg.MustParseName(fmt.Sprintf("host%d.bench.test.", i))
		mustAdd(dnsmsg.RR{Name: name, Type: dnsmsg.TypeA, Class: dnsmsg.ClassINET, TTL: 60,
			Data: dnsmsg.A{Addr: mustAddr("192.0.2.1")}})
		if i%10 == 0 {
			sub := dnsmsg.MustParseName(fmt.Sprintf("sub%d.bench.test.", i))
			mustAdd(dnsmsg.RR{Name: sub, Type: dnsmsg.TypeNS, Class: dnsmsg.ClassINET, TTL: 60,
				Data: dnsmsg.NS{Host: dnsmsg.MustParseName("ns1." + string(sub))}})
			mustAdd(dnsmsg.RR{Name: dnsmsg.MustParseName("ns1." + string(sub)), Type: dnsmsg.TypeA,
				Class: dnsmsg.ClassINET, TTL: 60, Data: dnsmsg.A{Addr: mustAddr("192.0.2.2")}})
		}
	}
	return z
}

// benchZoneText is the master-file input for the ingestion benchmarks:
// the genZone mix (directives, blank owners, parenthesized records,
// quoted strings) at a size large enough to swamp per-op setup.
func benchZoneText(b testing.TB) ([]byte, int) {
	b.Helper()
	data := []byte(genZone(20000))
	n := 0
	sp := NewStreamParserBytes(data, "")
	var rec Rec
	for {
		if err := sp.Next(&rec); err != nil {
			if err != io.EOF {
				b.Fatal(err)
			}
			break
		}
		n++
	}
	return data, n
}

// reportRecs converts the per-op record count into a records/sec
// metric, reported beside SetBytes' MB/s; TestZoneParseSpeedup holds
// the ratio between the streaming and classic parsers.
func reportRecs(b *testing.B, recs int) {
	b.ReportMetric(float64(recs)*float64(b.N)/b.Elapsed().Seconds(), "recs/s")
}

// classicOp parses data with the classic parser on each call.
func classicOp(data []byte) func() error {
	return func() error {
		_, err := parseReference(bytes.NewReader(data), "")
		return err
	}
}

// BenchmarkZoneParseClassic is the baseline the streaming parser is
// measured against (TestZoneParseSpeedup requires streaming >= 10x the
// classic parser's speed).
func BenchmarkZoneParseClassic(b *testing.B) {
	data, recs := benchZoneText(b)
	b.SetBytes(int64(len(data)))
	benchOp(b, classicOp(data))
	reportRecs(b, recs)
}

// BenchmarkZoneParseStreaming measures the raw tokenizer+decoder loop,
// the per-record cost replay ingestion pays: 0 allocs/op steady state.
func BenchmarkZoneParseStreaming(b *testing.B) {
	data, recs := benchZoneText(b)
	sp := NewStreamParserBytes(data, "")
	var rec Rec
	b.ReportAllocs()
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		streamAll(b, sp, &rec, data, recs)
	}
	reportRecs(b, recs)
}

// streamAll runs the streaming loop over data once and checks that it
// yields recs records.
func streamAll(tb testing.TB, sp *StreamParser, rec *Rec, data []byte, recs int) {
	sp.ResetBytes(data, "")
	n := 0
	for {
		err := sp.Next(rec)
		if err == io.EOF {
			break
		}
		if err != nil {
			tb.Fatal(err)
		}
		n++
	}
	if n != recs {
		tb.Fatalf("parsed %d records, want %d", n, recs)
	}
}

// TestZoneParseSpeedup holds the streaming loop at ten times the
// classic parser's speed on benchZoneText. Both run in the same
// process on the same input, so the host cancels out. Ten rounds
// interleave the two and keep the best time per side: on a shared host
// the streaming loop has slow spells, nearly twice its usual time, that
// three rounds do not always outlast. One P, as the threshold was first
// recorded: with more, the classic parser's collector runs on another
// core, whose speed on a shared host need not match the streaming
// loop's.
func TestZoneParseSpeedup(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation swamps the parsers' own cost")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	data, recs := benchZoneText(t)
	parseClassic := classicOp(data)
	sp := NewStreamParserBytes(data, "")
	var rec Rec
	const rounds = 10
	classic, streaming := time.Duration(math.MaxInt64), time.Duration(math.MaxInt64)
	for range rounds {
		start := time.Now()
		if err := parseClassic(); err != nil {
			t.Fatal(err)
		}
		classic = min(classic, time.Since(start))
		start = time.Now()
		streamAll(t, sp, &rec, data, recs)
		streaming = min(streaming, time.Since(start))
	}
	ratio := float64(classic) / float64(streaming)
	if ratio < 10 {
		t.Errorf("streaming parse %v, classic %v over %d rounds: %.1fx, want >= 10x", streaming, classic, rounds, ratio)
	} else {
		t.Logf("streaming parse %v, classic %v over %d rounds: %.1fx", streaming, classic, rounds, ratio)
	}
}

// toZoneOp parses data into a Zone on each call: Parse, the wrapper
// call sites actually pay.
func toZoneOp(data []byte) func() error {
	return func() error {
		_, err := Parse(bytes.NewReader(data), "")
		return err
	}
}

// BenchmarkZoneParseToZone includes Zone construction; informational.
func BenchmarkZoneParseToZone(b *testing.B) {
	data, recs := benchZoneText(b)
	b.SetBytes(int64(len(data)))
	benchOp(b, toZoneOp(data))
	reportRecs(b, recs)
}

// parseWorkers is the chunked parse ops' worker count. It is fixed, not
// GOMAXPROCS, so the chunked path (prescan, worker goroutines, in-order
// merge) runs even on the one P testing.AllocsPerRun pins.
const parseWorkers = 4

// chunkedOp parses data on the chunked path ldp-server loads zones
// through and checks the zone holds recs records.
func chunkedOp(data []byte, recs int) func() error {
	return func() error {
		z, err := parseParallel(data, "", parseWorkers, 0)
		if err == nil && z.RecordCount() != recs {
			err = fmt.Errorf("zone has %d records, want %d", z.RecordCount(), recs)
		}
		return err
	}
}

// BenchmarkZoneParseParallel is the chunked multi-core path;
// informational.
func BenchmarkZoneParseParallel(b *testing.B) {
	data, recs := benchZoneText(b)
	b.SetBytes(int64(len(data)))
	benchOp(b, chunkedOp(data, recs))
	reportRecs(b, recs)
}

// flatZoneText is a zone of n owners with one A record each under one
// origin: the shape of a large flat host zone, where ingest cost is all
// per owner.
func flatZoneText(n int) []byte {
	var b bytes.Buffer
	b.WriteString("$ORIGIN flat.test.\n" +
		"@\t3600\tIN\tSOA\tns.flat.test. h.flat.test. 1 7200 3600 1209600 300\n" +
		"@\t3600\tIN\tNS\tns.flat.test.\n")
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, "h%d.flat.test.\t300\tIN\tA\t10.%d.%d.%d\n", i, i>>16&255, i>>8&255, i&255)
	}
	return b.Bytes()
}

// flatRecs is the record count of flatZoneText(300000): the owners
// plus the apex SOA and NS.
const flatRecs = 300000 + 2

// BenchmarkZoneParseFlat loads 300 000 one-record owners through the
// chunked path.
func BenchmarkZoneParseFlat(b *testing.B) {
	data := flatZoneText(300000)
	b.SetBytes(int64(len(data)))
	benchOp(b, chunkedOp(data, flatRecs))
	reportRecs(b, flatRecs)
}

// queryNames spells n query names from format, the i-th with argument
// i*step, before any measured loop.
func queryNames(format string, n, step int) []dnsmsg.Name {
	names := make([]dnsmsg.Name, n)
	for i := range names {
		names[i] = dnsmsg.Name(fmt.Sprintf(format, i*step))
	}
	return names
}

// queryOp queries z for the next of names, cycling, on each call: the
// op of the query benchmarks, z.Query alone.
func queryOp(z *Zone, names []dnsmsg.Name, want Result) func() error {
	i := 0
	return func() error {
		i++
		return queryOne(z, names[(i-1)%len(names)], want)
	}
}

// queryOne queries z for name and checks the result. It is a plain
// function, not part of queryOp's closure, so that the compiler inlines
// z.Query here and its Answer stays on the stack, as it does in a
// caller's own loop.
func queryOne(z *Zone, name dnsmsg.Name, want Result) error {
	if r := z.Query(name, dnsmsg.TypeA, false).Result; r != want {
		return fmt.Errorf("%s: result=%v, want %v", name, r, want)
	}
	return nil
}

// The query benchmarks' names cycle a fixed set, so allocs/op does not
// depend on b.N.
func positiveNames() []dnsmsg.Name { return queryNames("host%d.bench.test.", 10000, 1) }
func referralNames() []dnsmsg.Name { return queryNames("deep.sub%d.bench.test.", 1000, 10) }
func nxdomainNames() []dnsmsg.Name { return queryNames("missing%d.bench.test.", 10000, 1) }

func BenchmarkQueryPositive(b *testing.B) {
	benchOp(b, queryOp(buildBigZone(b, 10000), positiveNames(), ResultAnswer))
}

func BenchmarkQueryReferral(b *testing.B) {
	benchOp(b, queryOp(buildBigZone(b, 10000), referralNames(), ResultReferral))
}

func BenchmarkQueryNXDomain(b *testing.B) {
	benchOp(b, queryOp(buildBigZone(b, 10000), nxdomainNames(), ResultNXDomain))
}

// HierarchyZones returns the 2 011 zones of the rec-hierarchy workload:
// zonegen.Generate with 200 SLDs per TLD, 8 hosts per SLD and seed 1.
// zonegen imports this package, so writeto_test.go, in package
// zone_test, sets it.
var HierarchyZones func(testing.TB) []*Zone

// writeToOp writes every zone of zs in master-file form on each call,
// the text ldp-zoneconstruct and the benchmark's zone loading produce.
func writeToOp(zs []*Zone) func() error {
	return func() error {
		for _, z := range zs {
			if _, err := z.WriteTo(io.Discard); err != nil {
				return err
			}
		}
		return nil
	}
}

// zoneRecords counts the records of zs.
func zoneRecords(zs []*Zone) int {
	n := 0
	for _, z := range zs {
		n += z.RecordCount()
	}
	return n
}

// BenchmarkZoneWriteTo writes the whole 2 011-zone hierarchy.
func BenchmarkZoneWriteTo(b *testing.B) {
	zs := HierarchyZones(b)
	benchOp(b, writeToOp(zs))
	reportRecs(b, zoneRecords(zs))
}
