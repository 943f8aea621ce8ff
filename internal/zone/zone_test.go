package zone

import (
	"bytes"
	"fmt"
	"net/netip"
	"testing"

	"ldplayer/internal/dnsmsg"
)

const exampleZone = `
$ORIGIN example.com.
$TTL 3600
@   IN SOA ns1 admin ( 2024010101 7200
                       3600 1209600 300 )
@   IN NS ns1
@   IN NS ns2
ns1 IN A 192.0.2.53
ns1 IN AAAA 2001:db8::53
ns2 IN A 192.0.2.54
www 300 IN A 192.0.2.80
www IN AAAA 2001:db8::80
web IN CNAME www
txt IN TXT "hello world" "and more"
mail IN MX 10 mx1.example.com.
mx1 IN A 192.0.2.25
; delegation
sub IN NS ns1.sub
ns1.sub IN A 192.0.2.100
deep.under.tree IN A 192.0.2.200
* IN A 192.0.2.99
_sip._tcp IN SRV 0 5 5060 www
`

func mustZone(t testing.TB) *Zone {
	t.Helper()
	z, err := ParseString(exampleZone, "")
	if err != nil {
		t.Fatal(err)
	}
	return z
}

func TestParseBasics(t *testing.T) {
	z := mustZone(t)
	if z.Origin != "example.com." {
		t.Fatalf("origin=%q", z.Origin)
	}
	soa := z.SOA()
	if soa == nil {
		t.Fatal("no SOA")
	}
	s := soa.Data[0].(dnsmsg.SOA)
	if s.Serial != 2024010101 || s.Minimum != 300 || s.MName != "ns1.example.com." {
		t.Errorf("SOA=%+v", s)
	}
	if set, ok := z.Lookup("www.example.com.", dnsmsg.TypeA); !ok || set.TTL != 300 {
		t.Errorf("www A ttl: %+v ok=%v", set, ok)
	}
	if set, ok := z.Lookup("txt.example.com.", dnsmsg.TypeTXT); !ok {
		t.Error("txt missing")
	} else if txt := set.Data[0].(dnsmsg.TXT); len(txt.Strings) != 2 || txt.Strings[0] != "hello world" {
		t.Errorf("TXT=%+v", txt)
	}
	if err := z.Validate(); err != nil {
		t.Errorf("Validate: %v", err)
	}
}

func TestParseErrors(t *testing.T) {
	cases := map[string]string{
		"out of zone":   "$ORIGIN a.com.\n@ IN SOA n h 1 1 1 1 1\nb.org. IN A 1.2.3.4\n",
		"bad ip":        "$ORIGIN a.com.\n@ IN A 999.2.3.4\n",
		"missing type":  "$ORIGIN a.com.\nfoo IN\n",
		"unbalanced":    "$ORIGIN a.com.\n@ IN SOA n h ( 1 1 1 1 1\n",
		"no origin rel": "foo IN A 1.2.3.4\n",
		"blank first":   "$ORIGIN a.com.\n  IN A 1.2.3.4\n",
		"bad ttl":       "$ORIGIN a.com.\n$TTL zz\n",
	}
	for name, in := range cases {
		if _, err := ParseString(in, ""); err == nil {
			t.Errorf("%s: parse accepted", name)
		}
	}
}

func TestParseTTLUnits(t *testing.T) {
	cases := map[string]uint32{"300": 300, "1h": 3600, "1h30m": 5400, "2d": 172800, "1w": 604800, "90s": 90}
	for in, want := range cases {
		got, err := parseTTL(in)
		if err != nil || got != want {
			t.Errorf("parseTTL(%q)=(%d,%v) want %d", in, got, err, want)
		}
	}
}

func TestBlankOwnerRepeats(t *testing.T) {
	z, err := ParseString("$ORIGIN a.com.\n@ IN SOA n h 1 1 1 1 1\nfoo IN A 1.2.3.4\n    IN AAAA ::1\n", "")
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := z.Lookup("foo.a.com.", dnsmsg.TypeAAAA); !ok {
		t.Error("blank owner did not repeat previous owner")
	}
}

func TestQueryAnswer(t *testing.T) {
	z := mustZone(t)
	a := z.Query("www.example.com.", dnsmsg.TypeA, false)
	if a.Result != ResultAnswer || a.Rcode != dnsmsg.RcodeSuccess {
		t.Fatalf("result=%v rcode=%v", a.Result, a.Rcode)
	}
	if len(a.Answer) != 1 || a.Answer[0].Data.(dnsmsg.A).Addr.String() != "192.0.2.80" {
		t.Errorf("answer=%v", a.Answer)
	}
}

func TestQueryNSWithGlue(t *testing.T) {
	z := mustZone(t)
	a := z.Query("example.com.", dnsmsg.TypeNS, false)
	if a.Result != ResultAnswer || len(a.Answer) != 2 {
		t.Fatalf("NS answer=%v", a.Answer)
	}
	if len(a.Additional) != 3 { // ns1 A+AAAA, ns2 A
		t.Errorf("glue=%v", a.Additional)
	}
}

func TestQueryCNAMEChase(t *testing.T) {
	z := mustZone(t)
	a := z.Query("web.example.com.", dnsmsg.TypeA, false)
	if a.Result != ResultAnswer {
		t.Fatalf("result=%v", a.Result)
	}
	if len(a.Answer) != 2 {
		t.Fatalf("answer=%v", a.Answer)
	}
	if _, ok := a.Answer[0].Data.(dnsmsg.CNAME); !ok {
		t.Error("first answer not CNAME")
	}
	if rr := a.Answer[1]; rr.Name != "www.example.com." || rr.Type != dnsmsg.TypeA {
		t.Errorf("chased answer=%v", rr)
	}
	// Asking for the CNAME itself must not chase.
	a = z.Query("web.example.com.", dnsmsg.TypeCNAME, false)
	if len(a.Answer) != 1 {
		t.Errorf("CNAME query answer=%v", a.Answer)
	}
}

func TestQueryCNAMELoopBounded(t *testing.T) {
	z := New("loop.test.")
	z.Add(dnsmsg.RR{Name: "loop.test.", Type: dnsmsg.TypeSOA, Class: dnsmsg.ClassINET, TTL: 60,
		Data: dnsmsg.SOA{MName: "ns.loop.test.", RName: "h.loop.test.", Serial: 1, Refresh: 1, Retry: 1, Expire: 1, Minimum: 1}})
	z.Add(dnsmsg.RR{Name: "a.loop.test.", Type: dnsmsg.TypeCNAME, Class: dnsmsg.ClassINET, TTL: 60, Data: dnsmsg.CNAME{Target: "b.loop.test."}})
	z.Add(dnsmsg.RR{Name: "b.loop.test.", Type: dnsmsg.TypeCNAME, Class: dnsmsg.ClassINET, TTL: 60, Data: dnsmsg.CNAME{Target: "a.loop.test."}})
	a := z.Query("a.loop.test.", dnsmsg.TypeA, false)
	if a.Result != ResultAnswer {
		t.Fatalf("result=%v", a.Result)
	}
	if len(a.Answer) > 2*maxCNAMEChain+2 {
		t.Errorf("CNAME loop not bounded: %d answers", len(a.Answer))
	}
}

func TestQueryReferral(t *testing.T) {
	z := mustZone(t)
	for _, q := range []dnsmsg.Name{"sub.example.com.", "x.sub.example.com.", "a.b.sub.example.com."} {
		a := z.Query(q, dnsmsg.TypeA, false)
		if a.Result != ResultReferral {
			t.Fatalf("%s: result=%v want referral", q, a.Result)
		}
		if a.Rcode != dnsmsg.RcodeSuccess || len(a.Answer) != 0 {
			t.Errorf("%s: rcode=%v answers=%v", q, a.Rcode, a.Answer)
		}
		if len(a.Authority) != 1 || a.Authority[0].Type != dnsmsg.TypeNS {
			t.Errorf("%s: authority=%v", q, a.Authority)
		}
		if len(a.Additional) != 1 { // glue for ns1.sub
			t.Errorf("%s: glue=%v", q, a.Additional)
		}
	}
}

func TestQueryNXDomainAndNoData(t *testing.T) {
	z := mustZone(t)
	// mx1 exists but has no AAAA -> NODATA with SOA.
	a := z.Query("mx1.example.com.", dnsmsg.TypeAAAA, false)
	if a.Result != ResultNoData || a.Rcode != dnsmsg.RcodeSuccess {
		t.Fatalf("nodata: result=%v rcode=%v", a.Result, a.Rcode)
	}
	if len(a.Authority) != 1 || a.Authority[0].Type != dnsmsg.TypeSOA {
		t.Errorf("nodata authority=%v", a.Authority)
	}
	// Wildcard exists at apex level, so most nonexistent names synthesize.
	// A name under an existing leaf does NOT match the apex wildcard
	// (closest encloser is the leaf): mx1 is a leaf.
	a = z.Query("nope.mx1.example.com.", dnsmsg.TypeA, false)
	if a.Result != ResultNXDomain || a.Rcode != dnsmsg.RcodeNXDomain {
		t.Fatalf("nxdomain: result=%v rcode=%v", a.Result, a.Rcode)
	}
}

func TestQueryWildcard(t *testing.T) {
	z := mustZone(t)
	a := z.Query("anything.example.com.", dnsmsg.TypeA, false)
	if a.Result != ResultAnswer {
		t.Fatalf("wildcard result=%v", a.Result)
	}
	if len(a.Answer) != 1 || a.Answer[0].Name != "anything.example.com." {
		t.Errorf("wildcard owner not rewritten: %v", a.Answer)
	}
	// Wildcard NODATA: the wildcard node has A only.
	a = z.Query("anything.example.com.", dnsmsg.TypeMX, false)
	if a.Result != ResultNoData {
		t.Errorf("wildcard nodata result=%v", a.Result)
	}
}

func TestQueryEmptyNonTerminal(t *testing.T) {
	z := mustZone(t)
	// deep.under.tree.example.com exists; under.tree and tree are ENTs.
	a := z.Query("under.tree.example.com.", dnsmsg.TypeA, false)
	if a.Result != ResultNoData {
		t.Fatalf("ENT result=%v want nodata", a.Result)
	}
	a = z.Query("tree.example.com.", dnsmsg.TypeA, false)
	if a.Result != ResultNoData {
		t.Fatalf("ENT result=%v want nodata", a.Result)
	}
}

func TestQueryANY(t *testing.T) {
	z := mustZone(t)
	a := z.Query("ns1.example.com.", dnsmsg.TypeANY, false)
	if a.Result != ResultAnswer || len(a.Answer) != 2 {
		t.Errorf("ANY: result=%v answer=%v", a.Result, a.Answer)
	}
}

func TestQueryOutOfZone(t *testing.T) {
	z := mustZone(t)
	a := z.Query("example.org.", dnsmsg.TypeA, false)
	if a.Result != ResultNotZone || a.Rcode != dnsmsg.RcodeRefused {
		t.Errorf("out of zone: result=%v rcode=%v", a.Result, a.Rcode)
	}
}

func TestWriteToParseRoundTrip(t *testing.T) {
	z := mustZone(t)
	var buf bytes.Buffer
	if _, err := z.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	z2, err := Parse(&buf, "")
	if err != nil {
		t.Fatalf("reparse: %v\nzone was:\n%s", err, buf.String())
	}
	if z2.RecordCount() != z.RecordCount() {
		t.Errorf("record count %d != %d", z2.RecordCount(), z.RecordCount())
	}
	// Lookups behave identically after the round trip.
	for _, q := range []struct {
		name dnsmsg.Name
		t    dnsmsg.Type
	}{
		{"www.example.com.", dnsmsg.TypeA},
		{"x.sub.example.com.", dnsmsg.TypeA},
		{"anything.example.com.", dnsmsg.TypeA},
	} {
		r1 := z.Query(q.name, q.t, false)
		r2 := z2.Query(q.name, q.t, false)
		if r1.Result != r2.Result || len(r1.Answer) != len(r2.Answer) {
			t.Errorf("%s %s: %v/%d vs %v/%d", q.name, q.t, r1.Result, len(r1.Answer), r2.Result, len(r2.Answer))
		}
	}
}

func TestCuts(t *testing.T) {
	z := mustZone(t)
	cuts := z.Cuts()
	if len(cuts) != 1 || cuts[0] != "sub.example.com." {
		t.Errorf("cuts=%v", cuts)
	}
}

func TestValidateRejectsBadZones(t *testing.T) {
	z := New("bad.test.")
	z.Add(dnsmsg.RR{Name: "bad.test.", Type: dnsmsg.TypeNS, Class: dnsmsg.ClassINET, TTL: 60, Data: dnsmsg.NS{Host: "ns.bad.test."}})
	if err := z.Validate(); err == nil {
		t.Error("zone without SOA validated")
	}
	z2 := New("bad2.test.")
	z2.Add(dnsmsg.RR{Name: "bad2.test.", Type: dnsmsg.TypeSOA, Class: dnsmsg.ClassINET, TTL: 60,
		Data: dnsmsg.SOA{MName: "n.", RName: "h.", Serial: 1, Refresh: 1, Retry: 1, Expire: 1, Minimum: 1}})
	z2.Add(dnsmsg.RR{Name: "bad2.test.", Type: dnsmsg.TypeNS, Class: dnsmsg.ClassINET, TTL: 60, Data: dnsmsg.NS{Host: "ns.bad2.test."}})
	z2.Add(dnsmsg.RR{Name: "x.bad2.test.", Type: dnsmsg.TypeCNAME, Class: dnsmsg.ClassINET, TTL: 60, Data: dnsmsg.CNAME{Target: "y.bad2.test."}})
	z2.Add(dnsmsg.RR{Name: "x.bad2.test.", Type: dnsmsg.TypeA, Class: dnsmsg.ClassINET, TTL: 60, Data: dnsmsg.A{Addr: mustAddr("192.0.2.1")}})
	if err := z2.Validate(); err == nil {
		t.Error("CNAME+A at same name validated")
	}
}

func TestAddDuplicateSuppressed(t *testing.T) {
	z := New("d.test.")
	rr := dnsmsg.RR{Name: "a.d.test.", Type: dnsmsg.TypeA, Class: dnsmsg.ClassINET, TTL: 60, Data: dnsmsg.A{Addr: mustAddr("192.0.2.1")}}
	z.Add(rr)
	z.Add(rr)
	set, _ := z.Lookup("a.d.test.", dnsmsg.TypeA)
	if len(set.Data) != 1 {
		t.Errorf("duplicate not suppressed: %d", len(set.Data))
	}
}

func TestNamesCanonicalOrder(t *testing.T) {
	z := mustZone(t)
	names := z.Names()
	for i := 0; i+1 < len(names); i++ {
		if dnsmsg.CanonicalCompare(names[i], names[i+1]) >= 0 {
			t.Errorf("names out of order: %q then %q", names[i], names[i+1])
		}
	}
}

func TestRootOriginZone(t *testing.T) {
	const rootZone = `
$ORIGIN .
$TTL 86400
@ IN SOA a.root-servers.net. nstld.verisign-grs.com. 2024010101 1800 900 604800 86400
@ IN NS a.root-servers.net.
com. IN NS a.gtld-servers.net.
a.gtld-servers.net. IN A 192.5.6.30
a.root-servers.net. IN A 198.41.0.4
`
	z, err := ParseString(rootZone, "")
	if err != nil {
		t.Fatal(err)
	}
	if z.Origin != dnsmsg.Root {
		t.Fatalf("origin=%q", z.Origin)
	}
	a := z.Query("www.google.com.", dnsmsg.TypeA, false)
	if a.Result != ResultReferral {
		t.Fatalf("root referral result=%v", a.Result)
	}
	if a.Authority[0].Name != "com." {
		t.Errorf("referral cut=%v", a.Authority[0])
	}
	if len(a.Additional) != 1 {
		t.Errorf("referral glue=%v", a.Additional)
	}
}

func TestDSAtCutAnsweredByParent(t *testing.T) {
	z := mustZone(t)
	z.Add(dnsmsg.RR{Name: "sub.example.com.", Type: dnsmsg.TypeDS, Class: dnsmsg.ClassINET, TTL: 3600,
		Data: dnsmsg.DS{KeyTag: 1, Algorithm: 8, DigestType: 2, Digest: bytes.Repeat([]byte{1}, 32)}})
	a := z.Query("sub.example.com.", dnsmsg.TypeDS, true)
	if a.Result != ResultAnswer || len(a.Answer) != 1 || a.Answer[0].Type != dnsmsg.TypeDS {
		t.Errorf("DS at cut: result=%v answer=%v", a.Result, a.Answer)
	}
	// But A at the cut still refers.
	a = z.Query("sub.example.com.", dnsmsg.TypeA, true)
	if a.Result != ResultReferral {
		t.Errorf("A at cut: result=%v", a.Result)
	}
	// And the referral now carries DS in authority when DO is set.
	foundDS := false
	for _, rr := range a.Authority {
		if rr.Type == dnsmsg.TypeDS {
			foundDS = true
		}
	}
	if !foundDS {
		t.Error("signed referral missing DS")
	}
}

func mustAddr(s string) netip.Addr { return netip.MustParseAddr(s) }

// mixedOwnerZone has one owner whose sets (and their RRSIGs) are added
// in descending type order, so any ordering the answer shows comes
// from the zone, not from insertion.
func mixedOwnerZone(t *testing.T) *Zone {
	t.Helper()
	z := mustZone(t)
	owner := dnsmsg.Name("mixed.example.com.")
	add := func(typ dnsmsg.Type, d dnsmsg.RData) {
		t.Helper()
		if err := z.Add(dnsmsg.RR{Name: owner, Type: typ, Class: dnsmsg.ClassINET, TTL: 300, Data: d}); err != nil {
			t.Fatal(err)
		}
	}
	sig := func(covered dnsmsg.Type) dnsmsg.RRSIG {
		return dnsmsg.RRSIG{TypeCovered: covered, Algorithm: 8, Labels: 3, OrigTTL: 300,
			SignerName: "example.com.", Signature: []byte{byte(covered)}}
	}
	add(dnsmsg.TypeSRV, dnsmsg.SRV{Priority: 1, Weight: 1, Port: 53, Target: "www.example.com."})
	add(dnsmsg.TypeRRSIG, sig(dnsmsg.TypeSRV))
	add(dnsmsg.TypeAAAA, dnsmsg.AAAA{Addr: netip.MustParseAddr("2001:db8::1")})
	add(dnsmsg.TypeTXT, dnsmsg.TXT{Strings: []string{"x"}})
	add(dnsmsg.TypeRRSIG, sig(dnsmsg.TypeTXT))
	add(dnsmsg.TypeMX, dnsmsg.MX{Preference: 5, Host: "mx1.example.com."})
	add(dnsmsg.TypeA, dnsmsg.A{Addr: netip.MustParseAddr("192.0.2.7")})
	add(dnsmsg.TypeRRSIG, sig(dnsmsg.TypeA))
	return z
}

func TestQueryANYTypeOrder(t *testing.T) {
	z := mixedOwnerZone(t)
	want := map[bool][]dnsmsg.Type{
		false: {dnsmsg.TypeA, dnsmsg.TypeMX, dnsmsg.TypeTXT, dnsmsg.TypeAAAA, dnsmsg.TypeSRV},
		true: {dnsmsg.TypeA, dnsmsg.TypeRRSIG, dnsmsg.TypeMX, dnsmsg.TypeTXT, dnsmsg.TypeRRSIG,
			dnsmsg.TypeAAAA, dnsmsg.TypeSRV, dnsmsg.TypeRRSIG},
	}
	for _, do := range []bool{false, true} {
		first := z.Query("mixed.example.com.", dnsmsg.TypeANY, do)
		var got []dnsmsg.Type
		for _, rr := range first.Answer {
			got = append(got, rr.Type)
		}
		if fmt.Sprint(got) != fmt.Sprint(want[do]) {
			t.Fatalf("do=%v: ANY answer types %v, want %v", do, got, want[do])
		}
		for i := 0; i < 100; i++ {
			a := z.Query("mixed.example.com.", dnsmsg.TypeANY, do)
			if fmt.Sprint(a.Answer) != fmt.Sprint(first.Answer) {
				t.Fatalf("do=%v call %d: ANY answer %v, first was %v", do, i, a.Answer, first.Answer)
			}
		}
	}
}

// TestLookupSetSeesLaterAdd: the *RRSet Lookup returns is the zone's
// own set, so it stays valid, and shows later Adds, while the owner's
// set list grows around it and the set outgrows its first record.
func TestLookupSetSeesLaterAdd(t *testing.T) {
	z := New("example.com.")
	owner := dnsmsg.Name("h.example.com.")
	add := func(typ dnsmsg.Type, d dnsmsg.RData) {
		t.Helper()
		if err := z.Add(dnsmsg.RR{Name: owner, Type: typ, Class: dnsmsg.ClassINET, TTL: 60, Data: d}); err != nil {
			t.Fatal(err)
		}
	}
	add(dnsmsg.TypeMX, dnsmsg.MX{Preference: 1, Host: "a.example.com."})
	mx, ok := z.Lookup(owner, dnsmsg.TypeMX)
	if !ok || len(mx.Data) != 1 {
		t.Fatalf("Lookup MX = %v, %v", mx, ok)
	}
	add(dnsmsg.TypeA, dnsmsg.A{Addr: netip.MustParseAddr("192.0.2.1")})
	a, _ := z.Lookup(owner, dnsmsg.TypeA)
	add(dnsmsg.TypeTXT, dnsmsg.TXT{Strings: []string{"t"}})
	for i := 2; i <= 4; i++ {
		add(dnsmsg.TypeMX, dnsmsg.MX{Preference: uint16(i), Host: "a.example.com."})
		add(dnsmsg.TypeA, dnsmsg.A{Addr: netip.AddrFrom4([4]byte{192, 0, 2, byte(i)})})
	}
	if len(mx.Data) != 4 || len(a.Data) != 4 {
		t.Fatalf("held sets have %d MX and %d A records, want 4 each", len(mx.Data), len(a.Data))
	}
	if again, _ := z.Lookup(owner, dnsmsg.TypeMX); again != mx {
		t.Fatal("Lookup returned a different MX set after Adds")
	}
	if again, _ := z.Lookup(owner, dnsmsg.TypeA); again != a {
		t.Fatal("Lookup returned a different A set after Adds")
	}
	if got := z.Sets(owner); len(got) != 3 || got[0] != a || got[1] != mx {
		t.Fatalf("Sets = %v, want A, MX, TXT", got)
	}
}

// TestRecordCountCountsAccepted: RecordCount is what Add kept —
// duplicates are dropped, RRSIGs count — and agrees with AllRRs.
func TestRecordCountCountsAccepted(t *testing.T) {
	z := mixedOwnerZone(t)
	before := z.RecordCount()
	dup := dnsmsg.RR{Name: "www.example.com.", Type: dnsmsg.TypeA, Class: dnsmsg.ClassINET, TTL: 300,
		Data: dnsmsg.A{Addr: netip.MustParseAddr("192.0.2.80")}}
	if err := z.Add(dup); err != nil {
		t.Fatal(err)
	}
	if z.RecordCount() != before {
		t.Fatalf("duplicate changed RecordCount %d -> %d", before, z.RecordCount())
	}
	if got := len(z.AllRRs()); got != z.RecordCount() {
		t.Fatalf("RecordCount %d, AllRRs has %d", z.RecordCount(), got)
	}
}

// TestAddOneRecordOwnerAllocs pins the node layout: a new owner with
// one record costs one allocation once the owner index has room.
func TestAddOneRecordOwnerAllocs(t *testing.T) {
	const n = 1000
	z := New("example.com.")
	z.nodes = make(map[dnsmsg.Name]*node, 2*n)
	rrs := make([]dnsmsg.RR, n)
	for i := range rrs {
		rrs[i] = dnsmsg.RR{Name: dnsmsg.Name(fmt.Sprintf("h%d.example.com.", i)), Type: dnsmsg.TypeA,
			Class: dnsmsg.ClassINET, TTL: 60, Data: dnsmsg.A{Addr: netip.MustParseAddr("192.0.2.1")}}
	}
	i := 0
	allocs := testing.AllocsPerRun(n-1, func() {
		if err := z.Add(rrs[i]); err != nil {
			t.Fatal(err)
		}
		i++
	})
	if allocs != 1 {
		t.Fatalf("Add of a one-record owner: %.2f allocs, want 1", allocs)
	}
}
