package dnsmsg

import (
	"bytes"
	"io"
	"math/rand"
	"net/netip"
	"reflect"
	"testing"
	"testing/quick"
)

func mustAddr(s string) netip.Addr { return netip.MustParseAddr(s) }

func sampleMsg() *Msg {
	m := &Msg{ID: 0x1234, Response: true, Authoritative: true, RecursionDesired: true}
	m.Question = []Question{{Name: "www.example.com.", Type: TypeA, Class: ClassINET}}
	m.Answer = []RR{
		{Name: "www.example.com.", Type: TypeCNAME, Class: ClassINET, TTL: 300,
			Data: CNAME{"web.example.com."}},
		{Name: "web.example.com.", Type: TypeA, Class: ClassINET, TTL: 300,
			Data: A{mustAddr("192.0.2.1")}},
	}
	m.Authority = []RR{
		{Name: "example.com.", Type: TypeNS, Class: ClassINET, TTL: 86400,
			Data: NS{"ns1.example.com."}},
		{Name: "example.com.", Type: TypeSOA, Class: ClassINET, TTL: 3600,
			Data: SOA{"ns1.example.com.", "admin.example.com.", 2024010101, 7200, 3600, 1209600, 300}},
	}
	m.Additional = []RR{
		{Name: "ns1.example.com.", Type: TypeA, Class: ClassINET, TTL: 86400,
			Data: A{mustAddr("192.0.2.53")}},
		{Name: "ns1.example.com.", Type: TypeAAAA, Class: ClassINET, TTL: 86400,
			Data: AAAA{mustAddr("2001:db8::53")}},
	}
	return m
}

func TestMsgRoundTrip(t *testing.T) {
	m := sampleMsg()
	wire, err := m.Pack()
	if err != nil {
		t.Fatal(err)
	}
	var got Msg
	if err := got.Unpack(wire); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(m, &got) {
		t.Errorf("round trip mismatch:\n got %+v\nwant %+v", &got, m)
	}
}

func TestMsgCompressionShrinks(t *testing.T) {
	m := sampleMsg()
	wire, err := m.Pack()
	if err != nil {
		t.Fatal(err)
	}
	// Sum of uncompressed RR lengths plus header/question exceeds the
	// compressed form: repeated example.com. suffixes must be pointers.
	uncompressed := headerLen + int(m.Question[0].Name.WireLen()) + 4
	for _, sec := range [][]RR{m.Answer, m.Authority, m.Additional} {
		for _, rr := range sec {
			uncompressed += rr.WireLen()
		}
	}
	if len(wire) >= uncompressed {
		t.Errorf("compressed %d >= uncompressed %d", len(wire), uncompressed)
	}
}

func TestAllRDataRoundTrip(t *testing.T) {
	rrs := []RR{
		{"a.example.", TypeA, ClassINET, 60, A{mustAddr("203.0.113.7")}},
		{"a.example.", TypeAAAA, ClassINET, 60, AAAA{mustAddr("2001:db8::1")}},
		{"example.", TypeNS, ClassINET, 60, NS{"ns.example."}},
		{"w.example.", TypeCNAME, ClassINET, 60, CNAME{"example."}},
		{"7.2.0.192.in-addr.arpa.", TypePTR, ClassINET, 60, PTR{"a.example."}},
		{"example.", TypeSOA, ClassINET, 60, SOA{"ns.example.", "host.example.", 1, 2, 3, 4, 5}},
		{"example.", TypeMX, ClassINET, 60, MX{10, "mail.example."}},
		{"example.", TypeTXT, ClassINET, 60, TXT{[]string{"hello world", "second"}}},
		{"_dns._udp.example.", TypeSRV, ClassINET, 60, SRV{1, 2, 53, "ns.example."}},
		{"example.", TypeDS, ClassINET, 60, DS{12345, 8, 2, bytes.Repeat([]byte{0xAB}, 32)}},
		{"example.", TypeDNSKEY, ClassINET, 60, DNSKEY{256, 3, 8, bytes.Repeat([]byte{0x01, 0x02}, 64)}},
		{"example.", TypeRRSIG, ClassINET, 60, RRSIG{TypeA, 8, 2, 60, 1700000000, 1690000000, 12345, "example.", bytes.Repeat([]byte{0xCD}, 128)}},
		{"a.example.", TypeNSEC, ClassINET, 60, NSEC{"b.example.", []Type{TypeA, TypeNS, TypeRRSIG, TypeCAA}}},
		{"x.example.", Type(999), ClassINET, 60, Raw{[]byte{1, 2, 3, 4}}},
	}
	for _, rr := range rrs {
		m := &Msg{ID: 1, Answer: []RR{rr}}
		wire, err := m.Pack()
		if err != nil {
			t.Fatalf("pack %s: %v", rr.Type, err)
		}
		var got Msg
		if err := got.Unpack(wire); err != nil {
			t.Fatalf("unpack %s: %v", rr.Type, err)
		}
		if len(got.Answer) != 1 || !reflect.DeepEqual(got.Answer[0], rr) {
			t.Errorf("%s round trip:\n got %+v\nwant %+v", rr.Type, got.Answer, rr)
		}
	}
}

func TestEDNS(t *testing.T) {
	var m Msg
	m.SetQuestion("example.com.", TypeA)
	if _, _, present := m.EDNS(); present {
		t.Fatal("EDNS present before SetEDNS")
	}
	m.SetEDNS(4096, true)
	size, do, present := m.EDNS()
	if !present || size != 4096 || !do {
		t.Fatalf("EDNS=(%d,%v,%v)", size, do, present)
	}
	// Replacing must not duplicate.
	m.SetEDNS(1232, false)
	size, do, _ = m.EDNS()
	if size != 1232 || do {
		t.Fatalf("EDNS after replace=(%d,%v)", size, do)
	}
	n := 0
	for _, rr := range m.Additional {
		if rr.Type == TypeOPT {
			n++
		}
	}
	if n != 1 {
		t.Fatalf("%d OPT records", n)
	}
	// Survives the wire.
	wire, err := m.Pack()
	if err != nil {
		t.Fatal(err)
	}
	var got Msg
	if err := got.Unpack(wire); err != nil {
		t.Fatal(err)
	}
	size, do, present = got.EDNS()
	if !present || size != 1232 || do {
		t.Fatalf("EDNS after wire=(%d,%v,%v)", size, do, present)
	}
}

func TestSetReply(t *testing.T) {
	var q Msg
	q.ID = 777
	q.RecursionDesired = true
	q.SetQuestion("example.org.", TypeMX)
	var r Msg
	r.SetReply(&q)
	if !r.Response || r.ID != 777 || !r.RecursionDesired {
		t.Errorf("reply header: %+v", r)
	}
	if len(r.Question) != 1 || r.Question[0] != q.Question[0] {
		t.Errorf("reply question: %+v", r.Question)
	}
}

func TestUnpackHostileInputs(t *testing.T) {
	cases := map[string][]byte{
		"empty":          {},
		"short header":   {0, 1, 2},
		"counts lie":     {0, 1, 0, 0, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF},
		"truncated q":    append(make([]byte, 4), 0, 1, 0, 0, 0, 0, 0, 0, 3, 'w'),
		"rdlen overrun":  mustPackThenTruncate(t),
		"bad rr pointer": {0, 1, 0x80, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0xC0, 0xFF, 0, 1, 0, 1, 0, 0, 0, 0, 0, 0},
	}
	for name, wire := range cases {
		var m Msg
		if err := m.Unpack(wire); err == nil {
			t.Errorf("%s: hostile input accepted", name)
		}
	}
}

func mustPackThenTruncate(t *testing.T) []byte {
	t.Helper()
	m := sampleMsg()
	wire, err := m.Pack()
	if err != nil {
		t.Fatal(err)
	}
	return wire[:len(wire)-3]
}

func TestTCPFraming(t *testing.T) {
	var buf bytes.Buffer
	msgs := [][]byte{
		[]byte("x"),
		bytes.Repeat([]byte{0xAA}, 512),
		bytes.Repeat([]byte{0xBB}, MaxMsgSize),
	}
	for _, m := range msgs {
		if err := WriteTCPMsg(&buf, m); err != nil {
			t.Fatal(err)
		}
	}
	for i, want := range msgs {
		got, err := ReadTCPMsg(&buf)
		if err != nil {
			t.Fatalf("msg %d: %v", i, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("msg %d: %d bytes, want %d", i, len(got), len(want))
		}
	}
	if _, err := ReadTCPMsg(&buf); err != io.EOF {
		t.Fatalf("want io.EOF at end, got %v", err)
	}
	// Oversized message rejected at write time.
	if err := WriteTCPMsg(&buf, make([]byte, MaxMsgSize+1)); err == nil {
		t.Fatal("oversized message accepted")
	}
	// Truncated body surfaces as unexpected EOF.
	buf.Reset()
	buf.Write([]byte{0x00, 0x10, 1, 2, 3})
	if _, err := ReadTCPMsg(&buf); err != io.ErrUnexpectedEOF {
		t.Fatalf("want ErrUnexpectedEOF, got %v", err)
	}
}

func TestAppendTCPMsg(t *testing.T) {
	var batch []byte
	var err error
	for i := 0; i < 3; i++ {
		batch, err = AppendTCPMsg(batch, []byte{byte(i), byte(i)})
		if err != nil {
			t.Fatal(err)
		}
	}
	r := bytes.NewReader(batch)
	for i := 0; i < 3; i++ {
		m, err := ReadTCPMsg(r)
		if err != nil || len(m) != 2 || m[0] != byte(i) {
			t.Fatalf("batched msg %d: %v %v", i, m, err)
		}
	}
}

func TestDNSKEYKeyTag(t *testing.T) {
	// Key tag must be stable and depend on the key material.
	k1 := DNSKEY{Flags: 256, Protocol: 3, Algorithm: 8, PublicKey: []byte{1, 2, 3, 4}}
	k2 := DNSKEY{Flags: 256, Protocol: 3, Algorithm: 8, PublicKey: []byte{1, 2, 3, 5}}
	if k1.KeyTag() == k2.KeyTag() {
		t.Error("different keys produced identical tags (unlikely; check algorithm)")
	}
	if k1.KeyTag() != k1.KeyTag() {
		t.Error("key tag not deterministic")
	}
}

func TestTypeClassStrings(t *testing.T) {
	if TypeA.String() != "A" || Type(9999).String() != "TYPE9999" {
		t.Error("Type.String")
	}
	got, err := TypeFromString("AAAA")
	if err != nil || got != TypeAAAA {
		t.Error("TypeFromString mnemonic")
	}
	got, err = TypeFromString("TYPE999")
	if err != nil || got != Type(999) {
		t.Error("TypeFromString RFC3597")
	}
	if _, err = TypeFromString("NOPE"); err == nil {
		t.Error("bad type accepted")
	}
	if ClassINET.String() != "IN" || Class(77).String() != "CLASS77" {
		t.Error("Class.String")
	}
	if c, err := ClassFromString("CLASS77"); err != nil || c != Class(77) {
		t.Error("ClassFromString")
	}
}

// Property: messages built from arbitrary well-formed components survive
// pack/unpack byte-for-byte equal on repack.
func TestMsgRepackStableProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	names := []Name{"example.com.", "www.example.com.", "a.b.c.example.org.", "net.", "."}
	types := []Type{TypeA, TypeNS, TypeCNAME, TypeTXT, TypeMX}
	f := func(id uint16, nq, na uint8) bool {
		var m Msg
		m.ID = id
		for i := 0; i < int(nq%3); i++ {
			m.Question = append(m.Question, Question{names[rng.Intn(len(names))], TypeA, ClassINET})
		}
		for i := 0; i < int(na%5); i++ {
			n := names[rng.Intn(len(names))]
			switch types[rng.Intn(len(types))] {
			case TypeA:
				m.Answer = append(m.Answer, RR{n, TypeA, ClassINET, 60, A{mustAddr("192.0.2.9")}})
			case TypeNS:
				m.Answer = append(m.Answer, RR{n, TypeNS, ClassINET, 60, NS{"ns.example.com."}})
			case TypeCNAME:
				m.Answer = append(m.Answer, RR{n, TypeCNAME, ClassINET, 60, CNAME{"t.example.com."}})
			case TypeTXT:
				m.Answer = append(m.Answer, RR{n, TypeTXT, ClassINET, 60, TXT{[]string{"v"}}})
			case TypeMX:
				m.Answer = append(m.Answer, RR{n, TypeMX, ClassINET, 60, MX{5, "m.example.com."}})
			}
		}
		w1, err := m.Pack()
		if err != nil {
			return false
		}
		var m2 Msg
		if err := m2.Unpack(w1); err != nil {
			return false
		}
		w2, err := m2.Pack()
		if err != nil {
			return false
		}
		return bytes.Equal(w1, w2)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// sampleWire is sampleMsg's wire form.
func sampleWire(tb testing.TB) []byte {
	tb.Helper()
	wire, err := sampleMsg().Pack()
	if err != nil {
		tb.Fatal(err)
	}
	return wire
}

// packOp packs sampleMsg afresh on each call.
func packOp(testing.TB) func() error {
	m := sampleMsg()
	return func() error {
		_, err := m.Pack()
		return err
	}
}

func BenchmarkMsgPack(b *testing.B) { benchOp(b, packOp(b)) }

// unpackOp decodes sampleMsg's wire form into one reused Msg.
func unpackOp(tb testing.TB) func() error {
	wire := sampleWire(tb)
	var m Msg
	return func() error { return m.Unpack(wire) }
}

func BenchmarkMsgUnpack(b *testing.B) { benchOp(b, unpackOp(b)) }
