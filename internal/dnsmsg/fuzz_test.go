package dnsmsg

import (
	"bytes"
	"errors"
	"net/netip"
	"reflect"
	"strings"
	"testing"
)

// fuzzSeedMsgs builds representative wire messages for the round-trip
// fuzzer: a plain query, an EDNS query, and a response with answers that
// pack with name compression.
func fuzzSeedMsgs(t testing.TB) [][]byte {
	t.Helper()
	var seeds [][]byte

	var q Msg
	q.ID = 0x1234
	q.SetQuestion("www.example.com.", TypeA)
	wire, err := q.Pack()
	if err != nil {
		t.Fatal(err)
	}
	seeds = append(seeds, wire)

	var qe Msg
	qe.ID = 0x5678
	qe.SetQuestion("example.com.", TypeTXT)
	qe.SetEDNS(4096, true)
	wire, err = qe.Pack()
	if err != nil {
		t.Fatal(err)
	}
	seeds = append(seeds, wire)

	var r Msg
	r.SetQuestion("www.example.com.", TypeA)
	r.SetReply(&q)
	r.Answer = append(r.Answer,
		RR{Name: "www.example.com.", Type: TypeA, Class: ClassINET, TTL: 300,
			Data: A{Addr: netip.MustParseAddr("192.0.2.1")}},
		RR{Name: "www.example.com.", Type: TypeA, Class: ClassINET, TTL: 300,
			Data: A{Addr: netip.MustParseAddr("192.0.2.2")}})
	r.Authority = append(r.Authority,
		RR{Name: "example.com.", Type: TypeNS, Class: ClassINET, TTL: 86400,
			Data: NS{Host: "ns1.example.com."}})
	wire, err = r.Pack()
	if err != nil {
		t.Fatal(err)
	}
	seeds = append(seeds, wire)
	return seeds
}

// FuzzMsgRoundTrip checks the decode→encode fixpoint: any message that
// Unpack accepts must Pack, and the packed form must decode back to a
// message that packs to identical bytes. (The first re-encoding may
// differ from the raw input — compression and name case normalize — but
// one round trip must reach a fixpoint.)
func FuzzMsgRoundTrip(f *testing.F) {
	for _, seed := range fuzzSeedMsgs(f) {
		f.Add(seed)
		if len(seed) > 3 {
			f.Add(seed[:len(seed)-3]) // truncated tail
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var m Msg
		if err := m.Unpack(data); err != nil {
			return
		}
		wire, err := m.Pack()
		if err != nil {
			t.Fatalf("accepted message does not re-encode: %v\ninput: %x", err, data)
		}
		var m2 Msg
		if err := m2.Unpack(wire); err != nil {
			t.Fatalf("re-encoded message does not decode: %v\nwire: %x", err, wire)
		}
		wire2, err := m2.Pack()
		if err != nil {
			t.Fatalf("second encode failed: %v", err)
		}
		if !bytes.Equal(wire, wire2) {
			t.Fatalf("encode is not a fixpoint:\nfirst:  %x\nsecond: %x", wire, wire2)
		}
	})
}

// FuzzUnpackPooledEquivalence is the differential fuzzer holding the
// arena decoder (UnpackBuffer) to the reference decoder (Unpack): both
// must accept/reject identically (same sentinel error), accepted inputs
// must decode to deep-equal messages (after Detach maps pooled pointer
// rdata back to value form), re-encode to identical bytes, and — the
// pool's whole point — decode identically again after Reset reuse has
// rewound and overwritten the arena.
func FuzzUnpackPooledEquivalence(f *testing.F) {
	for _, seed := range fuzzSeedMsgs(f) {
		f.Add(seed)
		if len(seed) > 3 {
			f.Add(seed[:len(seed)-3]) // truncated tail
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var ref Msg
		refErr := ref.Unpack(data)
		m := GetMsg()
		defer PutMsg(m)
		if poolErr := m.UnpackBuffer(data); poolErr != refErr {
			t.Fatalf("decoders disagree: reference %v, pooled %v\ninput: %x", refErr, poolErr, data)
		}
		if refErr != nil {
			return
		}
		if got := m.Detach(); !reflect.DeepEqual(&ref, got) {
			t.Fatalf("pooled decode diverges:\n got %+v\nwant %+v\ninput: %x", got, &ref, data)
		}
		refWire, refPackErr := ref.Pack()
		poolWire, poolPackErr := m.PackBuffer(nil)
		if (refPackErr == nil) != (poolPackErr == nil) {
			t.Fatalf("encoders disagree: reference %v, pooled %v", refPackErr, poolPackErr)
		}
		if refPackErr == nil && !bytes.Equal(refWire, poolWire) {
			t.Fatalf("pooled encode diverges:\n got %x\nwant %x", poolWire, refWire)
		}
		// Reuse: UnpackBuffer resets first, so a second decode runs over
		// the rewound arena. It must reproduce the same message.
		if err := m.UnpackBuffer(data); err != nil {
			t.Fatalf("decode after reuse failed: %v", err)
		}
		if got := m.Detach(); !reflect.DeepEqual(&ref, got) {
			t.Fatalf("decode after reuse diverges:\n got %+v\nwant %+v", got, &ref)
		}
	})
}

// TestUnpackNameRawBytes pins the fix for a fuzzer-found round-trip
// break (corpus seed 340282658f294ed1): strings.ToLower rewrote
// non-UTF-8 label bytes to U+FFFD, and a '.' inside a wire label
// produced an ambiguous presentation form. High bytes must now survive
// unchanged and dotted labels must be rejected outright.
func TestUnpackNameRawBytes(t *testing.T) {
	name, _, err := unpackName([]byte("\x030\x8a0\x00"), 0)
	if err != nil {
		t.Fatalf("high-byte label rejected: %v", err)
	}
	if want := Name("0\x8a0."); name != want {
		t.Fatalf("high byte not preserved: got %q want %q", name, want)
	}
	wire, err := AppendNameWire(nil, name)
	if err != nil {
		t.Fatalf("re-encode: %v", err)
	}
	if !bytes.Equal(wire, []byte("\x030\x8a0\x00")) {
		t.Fatalf("high-byte label did not round-trip: %x", wire)
	}

	if _, _, err := unpackName([]byte("\x03a.b\x00"), 0); err == nil {
		t.Fatal("label containing '.' was accepted; its text form is ambiguous")
	}
}

// FuzzNameUnpack drives the compression-pointer decoder directly: no
// input may panic or loop, and any accepted name must re-encode.
func FuzzNameUnpack(f *testing.F) {
	// A straight name at offset 0.
	f.Add([]byte("\x03www\x07example\x03com\x00"), uint16(0))
	// A name whose tail is a pointer back to offset 0.
	f.Add([]byte("\x07example\x03com\x00\x03www\xc0\x00"), uint16(13))
	// A pointer chain: 17 -> 13 -> 0.
	f.Add([]byte("\x07example\x03com\x00\x03www\xc0\x00\xc0\x0d"), uint16(17))
	// Invalid: forward pointer (would loop).
	f.Add([]byte("\xc0\x00"), uint16(0))
	// Invalid: obsolete 0x40 label type.
	f.Add([]byte("\x40abc\x00"), uint16(0))
	f.Fuzz(func(t *testing.T, data []byte, off uint16) {
		name, end, err := unpackName(data, int(off))
		if err != nil {
			return
		}
		if end < 0 || end > len(data) {
			t.Fatalf("end offset %d outside message of %d bytes", end, len(data))
		}
		if n := name.WireLen(); n > MaxNameLen+1 {
			t.Fatalf("accepted name %q has wire length %d > %d", name, n, MaxNameLen+1)
		}
		if _, err := AppendNameWire(nil, name); err != nil {
			t.Fatalf("accepted name %q does not re-encode: %v", name, err)
		}
	})
}

// FuzzAppendQuery holds AppendQuery to the reference encoder: for any
// name ParseName accepts, its bytes are those SetQuestion + SetEDNS +
// Pack give; for any name ParseName rejects, it returns ParseName's
// error and leaves buf as it was.
func FuzzAppendQuery(f *testing.F) {
	f.Add("www.example.com.", uint16(TypeA), uint16(0), false, uint16(0x1234))
	f.Add("WWW.Example.COM", uint16(TypeAAAA), uint16(4096), true, uint16(7))
	f.Add(".", uint16(TypeDNSKEY), uint16(1232), false, uint16(0))
	f.Add("junk42.local7.", uint16(TypeA), uint16(512), true, uint16(0xFFFF))
	f.Add("a..b.", uint16(TypeA), uint16(0), false, uint16(1))
	f.Add("", uint16(TypeNS), uint16(0), false, uint16(1))
	f.Add(strings.Repeat("x", 64)+".com.", uint16(TypeA), uint16(0), false, uint16(1))
	f.Add(strings.Repeat("abcdefg.", 32), uint16(TypeA), uint16(0), false, uint16(1))
	f.Fuzz(func(t *testing.T, name string, qtype, udpSize uint16, do bool, id uint16) {
		prefix := []byte{0xAB, 0xCD}
		got, err := AppendQuery(prefix, id, []byte(name), Type(qtype), udpSize, do)
		n, perr := ParseName(name)
		if perr != nil {
			if !errors.Is(err, perr) {
				t.Fatalf("AppendQuery(%q) error %v, ParseName error %v", name, err, perr)
			}
			if !bytes.Equal(got, prefix) {
				t.Fatalf("AppendQuery(%q) failed but wrote %x", name, got[len(prefix):])
			}
			return
		}
		if err != nil {
			t.Fatalf("AppendQuery(%q): %v, but ParseName accepts it", name, err)
		}
		var m Msg
		m.ID = id
		m.SetQuestion(n, Type(qtype))
		if udpSize != 0 {
			m.SetEDNS(udpSize, do)
		}
		want, err := m.Pack()
		if err != nil {
			t.Fatalf("reference Pack of %q: %v", n, err)
		}
		if !bytes.Equal(got[:len(prefix)], prefix) || !bytes.Equal(got[len(prefix):], want) {
			t.Fatalf("AppendQuery(%q, %d, %d, %v)\n got %x\nwant %x", name, qtype, udpSize, do, got[len(prefix):], want)
		}
	})
}
