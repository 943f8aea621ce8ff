package dnsmsg

import (
	"bytes"
	"reflect"
	"testing"
)

// allRDataMsg exercises every modeled rdata type plus an unknown one,
// with EDNS attached, so equivalence tests cover each arena slab.
func allRDataMsg() *Msg {
	m := &Msg{ID: 0xBEEF, Response: true, Rcode: RcodeSuccess}
	m.Question = []Question{{Name: "all.example.", Type: TypeANY, Class: ClassINET}}
	m.Answer = []RR{
		{"a.example.", TypeA, ClassINET, 60, A{mustAddr("203.0.113.7")}},
		{"a.example.", TypeAAAA, ClassINET, 60, AAAA{mustAddr("2001:db8::1")}},
		{"example.", TypeNS, ClassINET, 60, NS{"ns.example."}},
		{"w.example.", TypeCNAME, ClassINET, 60, CNAME{"example."}},
		{"7.2.0.192.in-addr.arpa.", TypePTR, ClassINET, 60, PTR{"a.example."}},
		{"example.", TypeSOA, ClassINET, 60, SOA{"ns.example.", "host.example.", 1, 2, 3, 4, 5}},
		{"example.", TypeMX, ClassINET, 60, MX{10, "mail.example."}},
		{"example.", TypeTXT, ClassINET, 60, TXT{[]string{"hello", "world"}}},
		{"_dns._udp.example.", TypeSRV, ClassINET, 60, SRV{1, 2, 53, "ns.example."}},
		{"sub.example.", TypeDS, ClassINET, 60, DS{4097, 8, 2, []byte{0xde, 0xad}}},
		{"example.", TypeDNSKEY, ClassINET, 60, DNSKEY{256, 3, 8, []byte{1, 2, 3, 4}}},
		{"example.", TypeRRSIG, ClassINET, 60, RRSIG{TypeA, 8, 2, 60, 1700000000, 1690000000, 4097, "example.", []byte{9, 9}}},
		{"a.example.", TypeNSEC, ClassINET, 60, NSEC{"b.example.", []Type{TypeA, TypeRRSIG, TypeNSEC}}},
		{"example.", Type(0xFF37), ClassINET, 60, Raw{[]byte{0xCA, 0xFE}}},
	}
	m.SetEDNS(4096, true)
	m.Additional = append(m.Additional, RR{
		Name: "opt.example.", Type: TypeOPT, Class: Class(1232), TTL: 0,
		Data: OPT{Options: []EDNSOption{{Code: 10, Data: []byte{1, 2, 3, 4, 5, 6, 7, 8}}}},
	})
	return m
}

// equivalenceWires returns packed messages spanning the codec's shapes:
// the compressed sample response, the all-types message, a bare query,
// and a root-name query with no other sections.
func equivalenceWires(t testing.TB) [][]byte {
	t.Helper()
	var wires [][]byte
	for _, m := range []*Msg{sampleMsg(), allRDataMsg()} {
		w, err := m.Pack()
		if err != nil {
			t.Fatal(err)
		}
		wires = append(wires, w)
	}
	var q Msg
	q.ID = 7
	q.SetQuestion("example.com.", TypeAAAA)
	w, err := q.Pack()
	if err != nil {
		t.Fatal(err)
	}
	wires = append(wires, w)

	var root Msg
	root.SetQuestion(Root, TypeNS)
	if w, err = root.Pack(); err != nil {
		t.Fatal(err)
	}
	wires = append(wires, w)
	return wires
}

// TestUnpackBufferEquivalence pins the arena decoder to the reference
// decoder: same wire in, deep-equal message out (after Detach maps
// pooled pointer rdata back to value form), and identical re-encoding
// through PackBuffer vs Pack.
func TestUnpackBufferEquivalence(t *testing.T) {
	m := GetMsg()
	defer PutMsg(m)
	for i, wire := range equivalenceWires(t) {
		var ref Msg
		if err := ref.Unpack(wire); err != nil {
			t.Fatalf("wire %d: reference Unpack: %v", i, err)
		}
		if err := m.UnpackBuffer(wire); err != nil {
			t.Fatalf("wire %d: UnpackBuffer: %v", i, err)
		}
		if got := m.Detach(); !reflect.DeepEqual(&ref, got) {
			t.Errorf("wire %d: pooled decode diverges:\n got %+v\nwant %+v", i, got, &ref)
		}
		refWire, err := ref.Pack()
		if err != nil {
			t.Fatalf("wire %d: reference Pack: %v", i, err)
		}
		poolWire, err := m.PackBuffer(nil)
		if err != nil {
			t.Fatalf("wire %d: PackBuffer: %v", i, err)
		}
		if !bytes.Equal(refWire, poolWire) {
			t.Errorf("wire %d: pooled pack diverges:\n got %x\nwant %x", i, poolWire, refWire)
		}
	}
}

// TestUnpackBufferReuse reuses one pooled message across every test
// wire twice over, verifying each decode against the reference and that
// a Detach taken before reuse stays intact after the arena is rewound
// and overwritten.
func TestUnpackBufferReuse(t *testing.T) {
	wires := equivalenceWires(t)
	m := GetMsg()
	defer PutMsg(m)

	if err := m.UnpackBuffer(wires[0]); err != nil {
		t.Fatal(err)
	}
	detached := m.Detach()
	var want Msg
	if err := want.Unpack(wires[0]); err != nil {
		t.Fatal(err)
	}

	for round := 0; round < 2; round++ {
		for i, wire := range wires {
			var ref Msg
			if err := ref.Unpack(wire); err != nil {
				t.Fatal(err)
			}
			if err := m.UnpackBuffer(wire); err != nil {
				t.Fatalf("round %d wire %d: %v", round, i, err)
			}
			if got := m.Detach(); !reflect.DeepEqual(&ref, got) {
				t.Errorf("round %d wire %d: reused decode diverges", round, i)
			}
		}
	}
	if !reflect.DeepEqual(&want, detached) {
		t.Error("Detach result mutated by later arena reuse")
	}
}

// TestUnpackBufferRejects pins the arena decoder's error behavior to
// the reference decoder on malformed input.
func TestUnpackBufferRejects(t *testing.T) {
	good, err := sampleMsg().Pack()
	if err != nil {
		t.Fatal(err)
	}
	bad := [][]byte{
		nil,
		good[:8], // short header
		append([]byte{0xFF, 0xFF}, make([]byte, 10)...),                             // zeroed counts, then truncated
		func() []byte { b := append([]byte(nil), good...); b[5] = 200; return b }(), // qdcount lies
		func() []byte { b := append([]byte(nil), good...); return b[:len(b)-4] }(),  // truncated rdata
	}
	m := GetMsg()
	defer PutMsg(m)
	for i, wire := range bad {
		var ref Msg
		refErr := ref.Unpack(wire)
		poolErr := m.UnpackBuffer(wire)
		if (refErr == nil) != (poolErr == nil) || refErr != poolErr {
			t.Errorf("case %d: reference err %v, pooled err %v", i, refErr, poolErr)
		}
	}
}

func TestNameClone(t *testing.T) {
	m := GetMsg()
	if err := m.UnpackBuffer(mustPack(t, sampleMsg())); err != nil {
		t.Fatal(err)
	}
	got := m.Question[0].Name.Clone()
	PutMsg(m)
	// Overwrite the arena with a different message; the clone must not move.
	other := GetMsg()
	defer PutMsg(other)
	if err := other.UnpackBuffer(mustPack(t, allRDataMsg())); err != nil {
		t.Fatal(err)
	}
	if got != "www.example.com." {
		t.Errorf("cloned name corrupted: %q", got)
	}
	if Root.Clone() != Root || Name("").Clone() != "" {
		t.Error("Clone of root/empty changed value")
	}
}

func mustPack(t testing.TB, m *Msg) []byte {
	t.Helper()
	w, err := m.Pack()
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func TestPoolStats(t *testing.T) {
	before := PoolStats()
	m := GetMsg()
	PutMsg(m)
	PutMsg(nil) // no-op, must not count
	after := PoolStats()
	if after.Gets != before.Gets+1 {
		t.Errorf("gets: %d -> %d", before.Gets, after.Gets)
	}
	if after.Puts != before.Puts+1 {
		t.Errorf("puts: %d -> %d", before.Puts, after.Puts)
	}
}

// TestSetReplyReusesQuestion guards the allocation-free SetReply: the
// question slice backing must be reused, and content must match the
// query.
func TestSetReplyReusesQuestion(t *testing.T) {
	var q Msg
	q.ID = 99
	q.SetQuestion("x.example.", TypeA)

	var resp Msg
	resp.SetReply(&q)
	resp.SetReply(&q) // second time reuses capacity
	if len(resp.Question) != 1 || resp.Question[0] != q.Question[0] {
		t.Fatalf("SetReply question mismatch: %+v", resp.Question)
	}
	if resp.ID != 99 || !resp.Response {
		t.Fatalf("SetReply header mismatch: %+v", resp)
	}
}

// pooledMsg takes a message from the pool for the rest of the test or
// benchmark and decodes sampleMsg's wire form into it, so its arena is
// warm.
func pooledMsg(tb testing.TB) (*Msg, []byte) {
	tb.Helper()
	wire := sampleWire(tb)
	m := GetMsg()
	tb.Cleanup(func() { PutMsg(m) })
	if err := m.UnpackBuffer(wire); err != nil {
		tb.Fatal(err)
	}
	return m, wire
}

// unpackPooledOp is the arena counterpart of unpackOp: the same wire,
// decoded into one pooled message reused across calls. TestAllocBounds
// holds it at zero allocs/op.
func unpackPooledOp(tb testing.TB) func() error {
	m, wire := pooledMsg(tb)
	return func() error { return m.UnpackBuffer(wire) }
}

func BenchmarkMsgUnpackPooled(b *testing.B) { benchOp(b, unpackPooledOp(b)) }

// packBufferOp packs a pooled decoded message into a reused output
// buffer — the serve path's encode step.
func packBufferOp(tb testing.TB) func() error {
	m, _ := pooledMsg(tb)
	out := make([]byte, 0, MaxUDPSize)
	return func() (err error) {
		out, err = m.PackBuffer(out[:0])
		return err
	}
}

func BenchmarkMsgPackBuffer(b *testing.B) { benchOp(b, packBufferOp(b)) }
