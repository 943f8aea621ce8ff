package zone

import (
	"bytes"
	"fmt"
	"io"
	"runtime"
	"testing"

	"ldplayer/internal/dnsmsg"
)

// buildBigZone creates a zone with n leaf names plus delegations, the
// shape a TLD zone has.
func buildBigZone(b *testing.B, n int) *Zone {
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
func benchZoneText(b *testing.B) ([]byte, int) {
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
// metric; together with SetBytes (MB/s) this is what ldp-benchdiff
// reads for the throughput gate.
func reportRecs(b *testing.B, recs int) {
	b.ReportMetric(float64(recs)*float64(b.N)/b.Elapsed().Seconds(), "recs/s")
}

// BenchmarkZoneParseClassic is the committed baseline the streaming
// parser is gated against (bench-check requires streaming >= 10x the
// classic records/sec).
func BenchmarkZoneParseClassic(b *testing.B) {
	data, recs := benchZoneText(b)
	b.ReportAllocs()
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := parseReference(bytes.NewReader(data), ""); err != nil {
			b.Fatal(err)
		}
	}
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
		sp.ResetBytes(data, "")
		n := 0
		for {
			err := sp.Next(&rec)
			if err == io.EOF {
				break
			}
			if err != nil {
				b.Fatal(err)
			}
			n++
		}
		if n != recs {
			b.Fatalf("parsed %d records, want %d", n, recs)
		}
	}
	reportRecs(b, recs)
}

// BenchmarkZoneParseToZone includes Zone construction (the Parse
// wrapper call sites actually pay); informational.
func BenchmarkZoneParseToZone(b *testing.B) {
	data, recs := benchZoneText(b)
	b.ReportAllocs()
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Parse(bytes.NewReader(data), ""); err != nil {
			b.Fatal(err)
		}
	}
	reportRecs(b, recs)
}

// BenchmarkZoneParseParallel is the chunked multi-core path ldp-server
// loads zones through; informational.
func BenchmarkZoneParseParallel(b *testing.B) {
	data, recs := benchZoneText(b)
	b.ReportAllocs()
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := parseParallel(data, "", runtime.GOMAXPROCS(0), 0); err != nil {
			b.Fatal(err)
		}
	}
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

// BenchmarkZoneParseFlat loads 300 000 one-record owners through the
// ParseParallel path ldp-server uses.
func BenchmarkZoneParseFlat(b *testing.B) {
	data := flatZoneText(300000)
	recs := 300000 + 2
	b.ReportAllocs()
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		z, err := parseParallel(data, "", runtime.GOMAXPROCS(0), 0)
		if err != nil {
			b.Fatal(err)
		}
		if z.RecordCount() != recs {
			b.Fatalf("zone has %d records, want %d", z.RecordCount(), recs)
		}
	}
	reportRecs(b, recs)
}

func BenchmarkQueryPositive(b *testing.B) {
	z := buildBigZone(b, 10000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		name := dnsmsg.Name(fmt.Sprintf("host%d.bench.test.", i%10000))
		a := z.Query(name, dnsmsg.TypeA, false)
		if a.Result != ResultAnswer {
			b.Fatalf("result=%v", a.Result)
		}
	}
}

func BenchmarkQueryReferral(b *testing.B) {
	z := buildBigZone(b, 10000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		name := dnsmsg.Name(fmt.Sprintf("deep.sub%d.bench.test.", (i%1000)*10))
		a := z.Query(name, dnsmsg.TypeA, false)
		if a.Result != ResultReferral {
			b.Fatalf("result=%v", a.Result)
		}
	}
}

func BenchmarkQueryNXDomain(b *testing.B) {
	z := buildBigZone(b, 10000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		name := dnsmsg.Name(fmt.Sprintf("missing%d.bench.test.", i))
		a := z.Query(name, dnsmsg.TypeA, false)
		if a.Result != ResultNXDomain {
			b.Fatalf("result=%v", a.Result)
		}
	}
}
