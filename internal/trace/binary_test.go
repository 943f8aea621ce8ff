package trace

import (
	"bufio"
	"bytes"
	"io"
	"net/netip"
	"testing"
	"time"
)

// wireEvent is a record with an n-byte wire whose bytes follow its
// index, so a record read back at the wrong offset shows.
func wireEvent(i, n int) *Event {
	w := make([]byte, n)
	for k := range w {
		w[k] = byte(i + k)
	}
	return &Event{
		Time:  time.Unix(1461234567, int64(i)),
		Src:   netip.AddrPortFrom(netip.AddrFrom4([4]byte{192, 0, 2, byte(i)}), uint16(1024+i)),
		Dst:   netip.MustParseAddrPort("[2001:db8::53]:53"),
		Proto: Proto(i % 3),
		Wire:  w,
	}
}

// TestBinaryWriterBufferBoundary: records that straddle the writer's
// 64 KiB buffer, one that ends exactly on it and a 65 535-byte wire all
// read back intact, and the magic header is written once.
func TestBinaryWriterBufferBoundary(t *testing.T) {
	const bufSize = 1 << 16
	events := []*Event{wireEvent(0, bufSize-len(binaryMagic)-4-binRecordFixed)} // fills the buffer exactly
	for i := 1; i < 200; i++ {
		n := 1 + (i*7919)%3000
		if i == 77 {
			n = 65535
		}
		events = append(events, wireEvent(i, n))
	}
	var buf bytes.Buffer
	w := NewBinaryWriter(&buf)
	want := len(binaryMagic)
	for _, e := range events {
		if err := w.Write(e); err != nil {
			t.Fatal(err)
		}
		want += 4 + binRecordFixed + len(e.Wire)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if buf.Len() != want || !bytes.HasPrefix(buf.Bytes(), binaryMagic) {
		t.Fatalf("stream is %d bytes (want %d: one magic header and %d records)", buf.Len(), want, len(events))
	}
	got, err := ReadAll(NewBinaryReader(&buf))
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Events) != len(events) {
		t.Fatalf("%d events read back, want %d", len(got.Events), len(events))
	}
	for i, a := range events {
		b := got.Events[i]
		if !a.Time.Equal(b.Time) || a.Src != b.Src || a.Dst != b.Dst || a.Proto != b.Proto || !bytes.Equal(a.Wire, b.Wire) {
			t.Fatalf("event %d (%d-byte wire) read back as %v %v %v %v %d bytes", i, len(a.Wire), b.Time, b.Src, b.Dst, b.Proto, len(b.Wire))
		}
	}
}

// TestBinaryWriterRejectsOversizedWire: a wire the reader would refuse
// is refused by the writer, and nothing of it reaches the stream.
func TestBinaryWriterRejectsOversizedWire(t *testing.T) {
	var buf bytes.Buffer
	w := NewBinaryWriter(&buf)
	if err := w.Write(wireEvent(0, 65536)); err == nil {
		t.Fatal("65 536-byte wire accepted")
	}
	if err := w.Flush(); err != nil || buf.Len() != 0 {
		t.Fatalf("refused first record left %d bytes (flush: %v)", buf.Len(), err)
	}
	if err := w.Write(wireEvent(1, 40)); err != nil {
		t.Fatal(err)
	}
	if err := w.Write(wireEvent(2, 1<<17)); err == nil {
		t.Fatal("128 KiB wire accepted")
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if want := len(binaryMagic) + 4 + binRecordFixed + 40; buf.Len() != want {
		t.Fatalf("stream is %d bytes, want %d: the refused record was written", buf.Len(), want)
	}
	if got, err := ReadAll(NewBinaryReader(&buf)); err != nil || len(got.Events) != 1 {
		t.Fatalf("read back %v, %v", got, err)
	}
}

// TestBinaryWriterAllocs: writing a record allocates nothing.
func TestBinaryWriterAllocs(t *testing.T) {
	w := NewBinaryWriter(io.Discard)
	e := wireEvent(5, 45)
	if a := testing.AllocsPerRun(1000, func() {
		if err := w.Write(e); err != nil {
			t.Fatal(err)
		}
	}); a != 0 {
		t.Errorf("BinaryWriter.Write: %v allocs per record, want 0", a)
	}
}

// TestBinaryReaderAllocs: reading a record costs its Event and its
// buffer, nothing more.
func TestBinaryReaderAllocs(t *testing.T) {
	var buf bytes.Buffer
	w := NewBinaryWriter(&buf)
	const n = 2000
	for i := 0; i < n; i++ {
		if err := w.Write(wireEvent(i, 45)); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	r := NewBinaryReader(bufio.NewReader(&buf))
	if _, err := r.Read(); err != nil { // the magic header
		t.Fatal(err)
	}
	if a := testing.AllocsPerRun(n/2, func() {
		if _, err := r.Read(); err != nil {
			t.Fatal(err)
		}
	}); a != 2 {
		t.Errorf("BinaryReader.Read: %v allocs per record, want 2", a)
	}
}
