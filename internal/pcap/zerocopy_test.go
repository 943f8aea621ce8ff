package pcap

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"net/netip"
	"testing"
	"time"

	"ldplayer/internal/trace"
)

// referenceReader is the package's original bufio.Scanner-era packet
// reader, kept verbatim as the executable specification the block-buffer
// zero-copy reader is fuzzed against (FuzzPCAPReadZeroCopy).
type referenceReader struct {
	r        *bufio.Reader
	order    binary.ByteOrder
	nanos    bool
	LinkType uint32
	snapLen  uint32
}

func newReferenceReader(r io.Reader) (*referenceReader, error) {
	br := bufio.NewReaderSize(r, 1<<16)
	var hdr [24]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return nil, fmt.Errorf("pcap: short global header: %w", err)
	}
	magic := binary.LittleEndian.Uint32(hdr[0:])
	pr := &referenceReader{r: br}
	switch magic {
	case magicUsec:
		pr.order = binary.LittleEndian
	case magicNsec:
		pr.order, pr.nanos = binary.LittleEndian, true
	case magicUsecSwapped:
		pr.order = binary.BigEndian
	case magicNsecSwapped:
		pr.order, pr.nanos = binary.BigEndian, true
	default:
		return nil, fmt.Errorf("pcap: bad magic %#x", magic)
	}
	pr.snapLen = pr.order.Uint32(hdr[16:])
	pr.LinkType = pr.order.Uint32(hdr[20:])
	return pr, nil
}

func (pr *referenceReader) Read() (Packet, error) {
	var hdr [16]byte
	if _, err := io.ReadFull(pr.r, hdr[:]); err != nil {
		if err == io.ErrUnexpectedEOF {
			return Packet{}, io.ErrUnexpectedEOF
		}
		return Packet{}, io.EOF
	}
	sec := pr.order.Uint32(hdr[0:])
	frac := pr.order.Uint32(hdr[4:])
	capLen := pr.order.Uint32(hdr[8:])
	origLen := pr.order.Uint32(hdr[12:])
	if capLen > 256*1024 {
		return Packet{}, fmt.Errorf("pcap: implausible capture length %d", capLen)
	}
	data := make([]byte, capLen)
	if _, err := io.ReadFull(pr.r, data); err != nil {
		return Packet{}, io.ErrUnexpectedEOF
	}
	ns := int64(frac)
	if !pr.nanos {
		ns *= 1000
	}
	return Packet{
		Time: time.Unix(int64(sec), ns),
		Data: data,
		Orig: int(origLen),
	}, nil
}

// FuzzPCAPReadZeroCopy holds the zero-copy block-buffer reader to the
// reference reader: for any input, header acceptance, every packet
// (time, data, original length), and the terminating error must match.
func FuzzPCAPReadZeroCopy(f *testing.F) {
	seed := fuzzSeedCapture(f)
	f.Add(seed)
	f.Add(seed[:24])
	f.Add(seed[:len(seed)-5])
	f.Add(bytes.Repeat([]byte{0xa1}, 30))
	f.Fuzz(func(t *testing.T, data []byte) {
		nr, nerr := NewReader(bytes.NewReader(data))
		rr, rerr := newReferenceReader(bytes.NewReader(data))
		if (nerr == nil) != (rerr == nil) {
			t.Fatalf("header accept mismatch: new=%v reference=%v", nerr, rerr)
		}
		if nerr != nil {
			if nerr.Error() != rerr.Error() {
				t.Fatalf("header error mismatch: new=%q reference=%q", nerr, rerr)
			}
			return
		}
		if nr.LinkType != rr.LinkType || nr.nanos != rr.nanos || nr.snapLen != rr.snapLen {
			t.Fatalf("header field mismatch")
		}
		for i := 0; ; i++ {
			if i > 1<<16 {
				t.Fatalf("reader did not terminate within %d packets", 1<<16)
			}
			np, ne := nr.ReadZeroCopy()
			rp, re := rr.Read()
			if (ne == nil) != (re == nil) {
				t.Fatalf("packet %d accept mismatch: new=%v reference=%v", i, ne, re)
			}
			if ne != nil {
				if ne.Error() != re.Error() {
					t.Fatalf("packet %d error mismatch: new=%q reference=%q", i, ne, re)
				}
				return
			}
			if !np.Time.Equal(rp.Time) || np.Orig != rp.Orig || !bytes.Equal(np.Data, rp.Data) {
				t.Fatalf("packet %d content mismatch", i)
			}
		}
	})
}

// TestReadZeroCopyAliasing pins the ownership contract: zero-copy
// packets alias the block buffer (and are invalidated by the next
// read), Clone and Read detach, and the capacity limit keeps appends
// from reaching into unread packets.
func TestReadZeroCopyAliasing(t *testing.T) {
	capture := fuzzSeedCapture(t)
	nr, err := NewReader(bytes.NewReader(capture))
	if err != nil {
		t.Fatal(err)
	}
	p1, err := nr.ReadZeroCopy()
	if err != nil {
		t.Fatal(err)
	}
	if len(p1.Data) == 0 {
		t.Fatal("empty first packet")
	}
	if cap(p1.Data) != len(p1.Data) {
		t.Fatalf("zero-copy Data must be capacity-limited: len=%d cap=%d", len(p1.Data), cap(p1.Data))
	}
	clone := p1.Clone()
	if &clone.Data[0] == &p1.Data[0] {
		t.Fatal("Clone did not detach from the block buffer")
	}
	p2, err := nr.ReadZeroCopy()
	if err != nil {
		t.Fatal(err)
	}
	// The clone must still carry the first packet even though p1.Data
	// may have been invalidated by the second read.
	rr, err := newReferenceReader(bytes.NewReader(capture))
	if err != nil {
		t.Fatal(err)
	}
	w1, _ := rr.Read()
	w2, _ := rr.Read()
	if !bytes.Equal(clone.Data, w1.Data) {
		t.Fatal("cloned packet corrupted by subsequent read")
	}
	if !bytes.Equal(p2.Data, w2.Data) {
		t.Fatal("second zero-copy packet wrong")
	}
}

// TestReadZeroCopySteadyStateAllocs: after warm-up the zero-copy scan
// of a capture allocates nothing per packet. It holds the bound of 3
// allocations per scan for BenchmarkPCAPReadZeroCopy.
func TestReadZeroCopySteadyStateAllocs(t *testing.T) {
	scan := scanOp(benchCapture(t), true)
	avg := testing.AllocsPerRun(10, func() {
		if err := scan(); err != nil {
			t.Fatal(err)
		}
	})
	// NewReader allocates the reader and its block; the per-packet loop
	// must add nothing (4096 packets, so any per-packet cost shows up).
	if avg > 3 {
		t.Fatalf("zero-copy scan allocated %.1f per pass; per-packet allocation has crept in", avg)
	}
}

func sampleUDPEvent(t testing.TB) *trace.Event {
	t.Helper()
	wire := []byte{
		0x12, 0x34, 0x01, 0x00, 0x00, 0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
		0x03, 'w', 'w', 'w', 0x07, 'e', 'x', 'a', 'm', 'p', 'l', 'e',
		0x03, 'c', 'o', 'm', 0x00, 0x00, 0x01, 0x00, 0x01,
	}
	return &trace.Event{
		Time:  time.Unix(1700000000, 0),
		Src:   netip.MustParseAddrPort("192.0.2.10:4242"),
		Dst:   netip.MustParseAddrPort("198.51.100.1:53"),
		Proto: trace.UDP,
		Wire:  wire,
	}
}

// scanOp reads a whole capture on each call, copying every packet
// unless zeroCopy is set: the op both read benchmarks loop and their
// allocation bounds count.
func scanOp(capture []byte, zeroCopy bool) func() error {
	return func() error {
		nr, err := NewReader(bytes.NewReader(capture))
		if err != nil {
			return err
		}
		for {
			if zeroCopy {
				_, err = nr.ReadZeroCopy()
			} else {
				_, err = nr.Read()
			}
			if err == io.EOF {
				return nil
			}
			if err != nil {
				return err
			}
		}
	}
}

// BenchmarkPCAPRead is the copying baseline for the zero-copy reader;
// TestAllocBounds holds its allocation bound.
func BenchmarkPCAPRead(b *testing.B) {
	capture := benchCapture(b)
	b.SetBytes(int64(len(capture)))
	benchOp(b, scanOp(capture, false))
}

// BenchmarkPCAPReadZeroCopy scans the same capture without per-packet
// allocation and reports its MB/s beside the baseline's;
// TestReadZeroCopySteadyStateAllocs holds its allocation bound.
func BenchmarkPCAPReadZeroCopy(b *testing.B) {
	capture := benchCapture(b)
	b.SetBytes(int64(len(capture)))
	benchOp(b, scanOp(capture, true))
}

func benchCapture(b testing.TB) []byte {
	b.Helper()
	var buf bytes.Buffer
	dw := NewDNSWriter(&buf)
	ev := sampleUDPEvent(b)
	for i := 0; i < 4096; i++ {
		if err := dw.Write(ev); err != nil {
			b.Fatal(err)
		}
	}
	if err := dw.Flush(); err != nil {
		b.Fatal(err)
	}
	return buf.Bytes()
}
