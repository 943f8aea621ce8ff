package server

import (
	"bytes"
	"fmt"
	"net/netip"
	"sync"
	"testing"

	"ldplayer/internal/dnsmsg"
	"ldplayer/internal/zone"
)

// wideZone produces responses larger than 512 bytes for truncation cases.
const wideZone = `
$ORIGIN big.test.
$TTL 3600
@ IN SOA ns1 admin 1 7200 3600 1209600 300
@ IN NS ns1
ns1 IN A 192.0.2.1
many IN TXT "aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa"
many IN TXT "bbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbb"
many IN TXT "cccccccccccccccccccccccccccccccccccccccccccccccccccccccccccccccc"
many IN TXT "dddddddddddddddddddddddddddddddddddddddddddddddddddddddddddddddd"
many IN TXT "eeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeee"
many IN TXT "ffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff"
many IN TXT "gggggggggggggggggggggggggggggggggggggggggggggggggggggggggggggggg"
many IN TXT "hhhhhhhhhhhhhhhhhhhhhhhhhhhhhhhhhhhhhhhhhhhhhhhhhhhhhhhhhhhhhhhh"
`

// TestHandleQueryWireEquivalence proves the wire path (pooled codec +
// answer cache) produces byte-identical output to the reference path
// (HandleQuery then Pack) — on the first call (cache miss), the second
// (admission), and the third (cache hit with header patch), across
// answer shapes (ANY included: its sets come in one fixed order),
// EDNS/DO variants, rejections, and truncation.
func TestHandleQueryWireEquivalence(t *testing.T) {
	s := New(Config{MaxUDPSize: 512})
	if err := s.AddZone(mustParse(t, exampleComZone)); err != nil {
		t.Fatal(err)
	}
	if err := s.AddZone(mustParse(t, comZone)); err != nil {
		t.Fatal(err)
	}
	if err := s.AddZone(mustParse(t, wideZone)); err != nil {
		t.Fatal(err)
	}
	src := netip.MustParseAddr("10.0.0.1")

	edns := func(name dnsmsg.Name, typ dnsmsg.Type, size uint16, do bool) *dnsmsg.Msg {
		m := query(name, typ)
		m.SetEDNS(size, do)
		return m
	}
	notimpl := query("www.example.com.", dnsmsg.TypeA)
	notimpl.Opcode = dnsmsg.OpcodeUpdate

	cases := []struct {
		name    string
		req     *dnsmsg.Msg
		maxSize int
	}{
		{"positive", query("www.example.com.", dnsmsg.TypeA), 512},
		{"positive-stream", query("www.example.com.", dnsmsg.TypeA), 0},
		{"nxdomain", query("nope.example.com.", dnsmsg.TypeA), 512},
		{"nodata", query("www.example.com.", dnsmsg.TypeAAAA), 512},
		{"referral", query("www.example.com.", dnsmsg.TypeA), 512}, // com view is not selected; still answered below
		{"apex-ns-glue", query("example.com.", dnsmsg.TypeNS), 512},
		{"edns-do", edns("www.example.com.", dnsmsg.TypeA, 1232, true), 512},
		{"edns-nodo", edns("www.example.com.", dnsmsg.TypeA, 4096, false), 512},
		{"refused", query("elsewhere.org.", dnsmsg.TypeA), 512},
		{"notimpl", notimpl, 512},
		{"truncated", query("many.big.test.", dnsmsg.TypeTXT), 512},
		{"trunc-edns-fits", edns("many.big.test.", dnsmsg.TypeTXT, 4096, false), 512},
		{"any", query("example.com.", dnsmsg.TypeANY), 512},
		{"any-do", edns("example.com.", dnsmsg.TypeANY, 1232, true), 512},
	}

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for round := 1; round <= 3; round++ {
				tc.req.ID = uint16(1000 + round) // a fresh ID each round exercises the hit-path patch
				tc.req.RecursionDesired = round == 2
				want, err := s.HandleQuery(src, tc.req, tc.maxSize).Pack()
				if err != nil {
					t.Fatal(err)
				}
				got, err := s.HandleQueryWire(src, tc.req, tc.maxSize, nil)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, want) {
					t.Fatalf("round %d: wire mismatch\n got %x\nwant %x", round, got, want)
				}
			}
		})
	}
}

// TestAnsCacheStats pins the admission discipline: first sighting only
// fingerprints, second inserts, third hits.
func TestAnsCacheStats(t *testing.T) {
	s := New(Config{MaxUDPSize: 512})
	if err := s.AddZone(mustParse(t, exampleComZone)); err != nil {
		t.Fatal(err)
	}
	src := netip.MustParseAddr("10.0.0.1")
	req := query("www.example.com.", dnsmsg.TypeA)
	for i := 0; i < 3; i++ {
		if _, err := s.HandleQueryWire(src, req, 512, nil); err != nil {
			t.Fatal(err)
		}
	}
	st := s.Stats()
	if st.CacheMisses != 2 || st.CacheHits != 1 {
		t.Fatalf("misses=%d hits=%d, want 2/1", st.CacheMisses, st.CacheHits)
	}
	if n := s.anscache.len(); n != 1 {
		t.Fatalf("cache holds %d entries, want 1", n)
	}
	// A refused query consults the cache (miss) but must never be inserted.
	for i := 0; i < 3; i++ {
		if _, err := s.HandleQueryWire(src, query("elsewhere.org.", dnsmsg.TypeA), 512, nil); err != nil {
			t.Fatal(err)
		}
	}
	st = s.Stats()
	if st.CacheMisses != 5 || st.CacheHits != 1 {
		t.Fatalf("after refused queries: misses=%d hits=%d, want 5/1", st.CacheMisses, st.CacheHits)
	}
	if n := s.anscache.len(); n != 1 {
		t.Fatalf("refused query was inserted (cache holds %d entries)", n)
	}
}

// TestAnsCacheInvalidation: adding a zone must invalidate cached
// responses built from the older zone set, even mid-serve.
func TestAnsCacheInvalidation(t *testing.T) {
	s := New(Config{MaxUDPSize: 512})
	if err := s.AddZone(mustParse(t, exampleComZone)); err != nil {
		t.Fatal(err)
	}
	src := netip.MustParseAddr("10.0.0.1")
	req := query("www.sub.example.com.", dnsmsg.TypeA)

	// Warm the cache past admission: third call serves the cached NXDOMAIN.
	for i := 0; i < 3; i++ {
		wire, err := s.HandleQueryWire(src, req, 512, nil)
		if err != nil {
			t.Fatal(err)
		}
		var m dnsmsg.Msg
		if err := m.Unpack(wire); err != nil {
			t.Fatal(err)
		}
		if m.Rcode != dnsmsg.RcodeNXDomain {
			t.Fatalf("round %d: rcode=%v, want NXDOMAIN", i, m.Rcode)
		}
	}
	if s.Stats().CacheHits == 0 {
		t.Fatal("cache never hit before invalidation")
	}

	// A more specific zone appears; the stale NXDOMAIN must not survive.
	sub := zone.New("sub.example.com.")
	for _, rr := range []dnsmsg.RR{
		{Name: "sub.example.com.", Type: dnsmsg.TypeSOA, Class: dnsmsg.ClassINET, TTL: 300,
			Data: dnsmsg.SOA{MName: "ns1.sub.example.com.", RName: "admin.sub.example.com.", Serial: 1, Refresh: 1, Retry: 1, Expire: 1, Minimum: 1}},
		{Name: "sub.example.com.", Type: dnsmsg.TypeNS, Class: dnsmsg.ClassINET, TTL: 300, Data: dnsmsg.NS{Host: "ns1.sub.example.com."}},
		{Name: "www.sub.example.com.", Type: dnsmsg.TypeA, Class: dnsmsg.ClassINET, TTL: 300, Data: mustA(t, "192.0.2.99")},
	} {
		if err := sub.Add(rr); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.AddZone(sub); err != nil {
		t.Fatal(err)
	}

	wire, err := s.HandleQueryWire(src, req, 512, nil)
	if err != nil {
		t.Fatal(err)
	}
	var m dnsmsg.Msg
	if err := m.Unpack(wire); err != nil {
		t.Fatal(err)
	}
	if m.Rcode != dnsmsg.RcodeSuccess || len(m.Answer) != 1 {
		t.Fatalf("after AddZone: rcode=%v answers=%d, want NOERROR/1", m.Rcode, len(m.Answer))
	}
}

func mustA(t *testing.T, s string) dnsmsg.A {
	t.Helper()
	return dnsmsg.A{Addr: netip.MustParseAddr(s)}
}

// TestHandleQueryWireConcurrentAddZone hammers the wire path from many
// goroutines while zones keep being added — the race detector proves the
// cache's generation-based invalidation and the pooled scratch are safe
// under concurrent serve + reconfiguration.
func TestHandleQueryWireConcurrentAddZone(t *testing.T) {
	s := New(Config{MaxUDPSize: 512})
	if err := s.AddZone(mustParse(t, exampleComZone)); err != nil {
		t.Fatal(err)
	}
	src := netip.MustParseAddr("10.0.0.1")
	names := []dnsmsg.Name{
		"www.example.com.", "ns1.example.com.", "nope.example.com.",
		"example.com.", "a.b.c.example.com.",
	}

	const workers = 8
	const perWorker = 400
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			req := dnsmsg.GetMsg()
			defer dnsmsg.PutMsg(req)
			var out []byte
			for i := 0; i < perWorker; i++ {
				n := names[(seed+i)%len(names)]
				req.SetQuestion(n, dnsmsg.TypeA)
				req.ID = uint16(i)
				wire, err := s.HandleQueryWire(src, req, 512, out[:0])
				if err != nil {
					t.Error(err)
					return
				}
				out = wire[:0]
			}
		}(w)
	}
	for i := 0; i < 20; i++ {
		z := zone.New(dnsmsg.Name(fmt.Sprintf("zone%d.test.", i)))
		if err := z.Add(dnsmsg.RR{
			Name: z.Origin, Type: dnsmsg.TypeSOA, Class: dnsmsg.ClassINET, TTL: 300,
			Data: dnsmsg.SOA{MName: "ns.test.", RName: "admin.test.", Serial: 1, Refresh: 1, Retry: 1, Expire: 1, Minimum: 1},
		}); err != nil {
			t.Fatal(err)
		}
		if err := s.AddZone(z); err != nil {
			t.Fatal(err)
		}
	}
	wg.Wait()
}

// handleQueryServer is the server BenchmarkServerHandleQuery queries:
// example.com plus extra zone lines.
func handleQueryServer(tb testing.TB, extra string) *Server {
	tb.Helper()
	s := New(Config{MaxUDPSize: 512})
	if err := s.AddZone(mustParse(tb, exampleComZone+extra)); err != nil {
		tb.Fatal(err)
	}
	return s
}

// BenchmarkServerHandleQuery measures the wire-path serve cost in its
// three regimes; TestAllocBounds holds each one's allocation bound.
func BenchmarkServerHandleQuery(b *testing.B) {
	src := netip.MustParseAddr("10.0.0.1")

	b.Run("hit", func(b *testing.B) {
		s := handleQueryServer(b, "")
		req := query("www.example.com.", dnsmsg.TypeA)
		out := make([]byte, 0, 512)
		for i := 0; i < 3; i++ { // warm past second-sighting admission
			if _, err := s.HandleQueryWire(src, req, 512, out[:0]); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			req.ID = uint16(i)
			wire, err := s.HandleQueryWire(src, req, 512, out[:0])
			if err != nil {
				b.Fatal(err)
			}
			out = wire[:0]
		}
		if st := s.Stats(); st.CacheHits < uint64(b.N) {
			b.Fatalf("hit bench missed the cache: hits=%d n=%d", st.CacheHits, b.N)
		}
	})

	b.Run("miss", func(b *testing.B) {
		// A wildcard makes every unique name a positive answer, so each
		// iteration runs the full zone walk + pack with a cold cache key.
		s := handleQueryServer(b, "* IN A 192.0.2.200\n")
		names := make([]dnsmsg.Name, b.N)
		for i := range names {
			names[i] = dnsmsg.Name(fmt.Sprintf("h%d.example.com.", i))
		}
		req := query("www.example.com.", dnsmsg.TypeA)
		out := make([]byte, 0, 512)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			req.SetQuestion(names[i], dnsmsg.TypeA)
			wire, err := s.HandleQueryWire(src, req, 512, out[:0])
			if err != nil {
				b.Fatal(err)
			}
			out = wire[:0]
		}
	})

	b.Run("nxdomain", func(b *testing.B) {
		s := handleQueryServer(b, "")
		names := make([]dnsmsg.Name, b.N)
		for i := range names {
			names[i] = dnsmsg.Name(fmt.Sprintf("h%d.example.com.", i))
		}
		req := query("www.example.com.", dnsmsg.TypeA)
		out := make([]byte, 0, 512)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			req.SetQuestion(names[i], dnsmsg.TypeA)
			wire, err := s.HandleQueryWire(src, req, 512, out[:0])
			if err != nil {
				b.Fatal(err)
			}
			out = wire[:0]
		}
	})
}
