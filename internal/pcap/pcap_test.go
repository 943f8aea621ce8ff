package pcap

import (
	"bytes"
	"fmt"
	"io"
	"net/netip"
	"testing"
	"time"

	"ldplayer/internal/dnsmsg"
	"ldplayer/internal/trace"
)

var (
	cliAP = netip.MustParseAddrPort("192.0.2.10:40000")
	srvAP = netip.MustParseAddrPort("198.41.0.4:53")
)

func dnsWire(t testing.TB, name dnsmsg.Name) []byte {
	t.Helper()
	var m dnsmsg.Msg
	m.ID = 99
	m.SetQuestion(name, dnsmsg.TypeA)
	w, err := m.Pack()
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func TestPcapFileRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf, LinkEthernet)
	pkts := []Packet{
		{Time: time.Unix(100, 5000), Data: EncodeUDPv4(cliAP, srvAP, []byte("abc"))},
		{Time: time.Unix(101, 0), Data: EncodeUDPv4(srvAP, cliAP, []byte("defg"))},
	}
	for _, p := range pkts {
		if err := w.Write(p); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	r, err := NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if r.LinkType != LinkEthernet {
		t.Errorf("linktype=%d", r.LinkType)
	}
	for i, want := range pkts {
		got, err := r.Read()
		if err != nil {
			t.Fatalf("packet %d: %v", i, err)
		}
		if !got.Time.Equal(want.Time) || !bytes.Equal(got.Data, want.Data) {
			t.Errorf("packet %d mismatch", i)
		}
	}
	if _, err := r.Read(); err != io.EOF {
		t.Errorf("want EOF, got %v", err)
	}
}

func TestReaderRejectsBadMagic(t *testing.T) {
	if _, err := NewReader(bytes.NewReader(make([]byte, 24))); err == nil {
		t.Error("zero magic accepted")
	}
	if _, err := NewReader(bytes.NewReader([]byte("short"))); err == nil {
		t.Error("short header accepted")
	}
}

func TestDecodeUDP(t *testing.T) {
	frame := EncodeUDPv4(cliAP, srvAP, []byte("payload!"))
	var d Decoded
	if err := Decode(LinkEthernet, frame, &d); err != nil {
		t.Fatal(err)
	}
	if d.IsTCP || d.IsIPv6 {
		t.Error("wrong transport flags")
	}
	if d.Src() != cliAP || d.Dst() != srvAP {
		t.Errorf("endpoints %v -> %v", d.Src(), d.Dst())
	}
	if string(d.Payload) != "payload!" {
		t.Errorf("payload=%q", d.Payload)
	}
	// IP checksum sanity: recompute over the header must match stored.
	ip := frame[14:34]
	if ipChecksum(ip) != uint16(ip[10])<<8|uint16(ip[11]) {
		t.Error("bad IPv4 checksum")
	}
}

func TestDecodeTCPFlags(t *testing.T) {
	syn := EncodeTCPv4(cliAP, srvAP, 1000, 0, true, false, nil)
	var d Decoded
	if err := Decode(LinkEthernet, syn, &d); err != nil {
		t.Fatal(err)
	}
	if !d.IsTCP || !d.TCP.SYN || d.TCP.FIN {
		t.Errorf("flags=%+v", d.TCP)
	}
	data := EncodeTCPv4(cliAP, srvAP, 1001, 1, false, false, []byte("xy"))
	if err := Decode(LinkEthernet, data, &d); err != nil {
		t.Fatal(err)
	}
	if d.TCP.SYN || !d.TCP.PSH || string(d.Payload) != "xy" {
		t.Errorf("data segment=%+v payload=%q", d.TCP, d.Payload)
	}
}

func TestDecodeHostileFrames(t *testing.T) {
	var d Decoded
	cases := map[string][]byte{
		"empty":      {},
		"short eth":  make([]byte, 10),
		"non-ip":     append(append(make([]byte, 12), 0x08, 0x06), make([]byte, 20)...), // ARP
		"short ip":   append(append(make([]byte, 12), 0x08, 0x00), 0x45, 0x00),
		"bad ihl":    append(append(make([]byte, 12), 0x08, 0x00), append([]byte{0x4F}, make([]byte, 60)...)...),
		"short udp":  append(append(make([]byte, 12), 0x08, 0x00), buildIPHeader(ProtoUDP, 4)...),
		"short tcp":  append(append(make([]byte, 12), 0x08, 0x00), buildIPHeader(ProtoTCP, 10)...),
		"not ip ver": append(append(make([]byte, 12), 0x08, 0x00), append([]byte{0x75}, make([]byte, 40)...)...),
	}
	for name, frame := range cases {
		if err := Decode(LinkEthernet, frame, &d); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func buildIPHeader(proto byte, extra int) []byte {
	b := make([]byte, 20+extra)
	b[0] = 0x45
	b[9] = proto
	return b
}

func TestReassemblerInOrder(t *testing.T) {
	ra := NewReassembler()
	msg := dnsWire(t, "example.com.")
	framed := append([]byte{byte(len(msg) >> 8), byte(len(msg))}, msg...)

	var d Decoded
	Decode(LinkEthernet, EncodeTCPv4(cliAP, srvAP, 1000, 0, true, false, nil), &d)
	if out := ra.Push(&d); out != nil {
		t.Fatal("SYN produced messages")
	}
	// Split the framed message across two segments.
	Decode(LinkEthernet, EncodeTCPv4(cliAP, srvAP, 1001, 1, false, false, framed[:5]), &d)
	if out := ra.Push(&d); out != nil {
		t.Fatal("partial message extracted")
	}
	Decode(LinkEthernet, EncodeTCPv4(cliAP, srvAP, 1001+5, 1, false, false, framed[5:]), &d)
	out := ra.Push(&d)
	if len(out) != 1 || !bytes.Equal(out[0], msg) {
		t.Fatalf("reassembly failed: %d messages", len(out))
	}
}

func TestReassemblerOutOfOrderAndBatch(t *testing.T) {
	ra := NewReassembler()
	m1 := dnsWire(t, "a.example.")
	m2 := dnsWire(t, "b.example.")
	var stream []byte
	for _, m := range [][]byte{m1, m2} {
		stream = append(stream, byte(len(m)>>8), byte(len(m)))
		stream = append(stream, m...)
	}
	var d Decoded
	// Establish the stream with a SYN so out-of-order data is buffered
	// rather than adopted as a mid-stream capture start.
	Decode(LinkEthernet, EncodeTCPv4(cliAP, srvAP, 1999, 0, true, false, nil), &d)
	ra.Push(&d)
	// Second half arrives first.
	half := len(stream) / 2
	Decode(LinkEthernet, EncodeTCPv4(cliAP, srvAP, 2000+uint32(half), 1, false, false, stream[half:]), &d)
	if out := ra.Push(&d); out != nil {
		t.Fatal("out-of-order segment produced messages")
	}
	Decode(LinkEthernet, EncodeTCPv4(cliAP, srvAP, 2000, 1, false, false, stream[:half]), &d)
	out := ra.Push(&d)
	if len(out) != 2 || !bytes.Equal(out[0], m1) || !bytes.Equal(out[1], m2) {
		t.Fatalf("batch reassembly failed: %d messages", len(out))
	}
}

func TestReassemblerRetransmission(t *testing.T) {
	ra := NewReassembler()
	msg := dnsWire(t, "r.example.")
	framed := append([]byte{byte(len(msg) >> 8), byte(len(msg))}, msg...)
	var d Decoded
	Decode(LinkEthernet, EncodeTCPv4(cliAP, srvAP, 100, 1, false, false, framed), &d)
	if out := ra.Push(&d); len(out) != 1 {
		t.Fatalf("first delivery: %d", len(out))
	}
	// Exact retransmission must not duplicate.
	Decode(LinkEthernet, EncodeTCPv4(cliAP, srvAP, 100, 1, false, false, framed), &d)
	if out := ra.Push(&d); len(out) != 0 {
		t.Fatalf("retransmission delivered %d messages", len(out))
	}
}

// TestDNSReaderEndToEnd writes synthetic captures of UDP and TCP DNS
// and reads them back as trace events. The reader decodes frames in
// place in its 64 KiB block buffer and refills it as it goes, so the
// larger capture checks that every event keeps its own Wire after the
// block it was read from has been reused.
func TestDNSReaderEndToEnd(t *testing.T) {
	small := []*trace.Event{
		{Time: time.Unix(10, 0), Src: cliAP, Dst: srvAP, Proto: trace.UDP, Wire: dnsWire(t, "u.example.")},
		{Time: time.Unix(11, 0), Src: cliAP, Dst: srvAP, Proto: trace.TCP, Wire: dnsWire(t, "t.example.")},
		{Time: time.Unix(12, 0), Src: cliAP, Dst: srvAP, Proto: trace.TCP, Wire: dnsWire(t, "t2.example.")},
	}
	var large []*trace.Event
	for i := range 2000 {
		proto := trace.UDP
		if i%3 == 0 {
			proto = trace.TCP
		}
		name := dnsmsg.MustParseName(fmt.Sprintf("q%d.%s.example.", i, proto))
		large = append(large, &trace.Event{Time: time.Unix(20, int64(i)), Src: cliAP, Dst: srvAP, Proto: proto, Wire: dnsWire(t, name)})
	}
	for name, events := range map[string][]*trace.Event{"one block": small, "many blocks": large} {
		t.Run(name, func(t *testing.T) {
			var buf bytes.Buffer
			dw := NewDNSWriter(&buf)
			for _, e := range events {
				if err := dw.Write(e); err != nil {
					t.Fatal(err)
				}
			}
			if err := dw.Flush(); err != nil {
				t.Fatal(err)
			}
			if name == "many blocks" && buf.Len() < 2<<16 {
				t.Fatalf("capture is %d bytes, want more than two 64 KiB blocks", buf.Len())
			}

			dr, err := NewDNSReader(&buf)
			if err != nil {
				t.Fatal(err)
			}
			got, err := trace.ReadAll(dr)
			if err != nil {
				t.Fatal(err)
			}
			if len(got.Events) != len(events) {
				t.Fatalf("%d events, want %d", len(got.Events), len(events))
			}
			for i, e := range got.Events {
				if !bytes.Equal(e.Wire, events[i].Wire) {
					t.Errorf("event %d (%v) wire mismatch", i, e.Proto)
				}
				if e.Proto != events[i].Proto {
					t.Errorf("event %d proto=%v want %v", i, e.Proto, events[i].Proto)
				}
				if e.Src != cliAP || e.Dst != srvAP {
					t.Errorf("event %d endpoints %v -> %v", i, e.Src, e.Dst)
				}
			}
		})
	}
}

func TestDNSReaderFiltersNonDNS(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf, LinkEthernet)
	other := netip.MustParseAddrPort("192.0.2.77:8080")
	w.Write(Packet{Time: time.Unix(1, 0), Data: EncodeUDPv4(cliAP, other, []byte("http?"))})
	w.Write(Packet{Time: time.Unix(2, 0), Data: EncodeUDPv4(cliAP, srvAP, dnsWire(t, "x.example."))})
	w.Flush()
	dr, err := NewDNSReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	got, err := trace.ReadAll(dr)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Events) != 1 || dr.Dropped != 1 {
		t.Errorf("events=%d dropped=%d", len(got.Events), dr.Dropped)
	}
}
