package trace_test

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"io"
	"testing"
	"time"

	"ldplayer/internal/trace"
	"ldplayer/internal/workload"
)

// twoWriteRecord is the binary writer's record encoding before records
// were appended in one copy: the length-prefixed 45-byte header and the
// wire as two buffered writes. It pins the file format.
func twoWriteRecord(w *bufio.Writer, e *trace.Event) error {
	var hdr [4 + 45]byte
	binary.BigEndian.PutUint32(hdr[0:], uint32(45+len(e.Wire)))
	binary.BigEndian.PutUint64(hdr[4:], uint64(e.Time.UnixNano()))
	src16 := e.Src.Addr().As16()
	copy(hdr[12:], src16[:])
	binary.BigEndian.PutUint16(hdr[28:], e.Src.Port())
	dst16 := e.Dst.Addr().As16()
	copy(hdr[30:], dst16[:])
	binary.BigEndian.PutUint16(hdr[46:], e.Dst.Port())
	hdr[48] = byte(e.Proto)
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(e.Wire)
	return err
}

// TestBinaryWriterFileUnchanged: a full B-Root model written through
// BinaryWriter is byte-identical to the two-write encoding.
func TestBinaryWriterFileUnchanged(t *testing.T) {
	tr := workload.BRootModel(workload.BRootConfig{Duration: 18 * time.Second, MedianRate: 20000, Clients: 2000, Seed: 1})

	got := sha256.New()
	bw := trace.NewBinaryWriter(got)
	if err := trace.WriteAll(bw, tr); err != nil {
		t.Fatal(err)
	}
	if err := bw.Flush(); err != nil {
		t.Fatal(err)
	}

	want := sha256.New()
	w := bufio.NewWriterSize(want, 1<<16)
	io.WriteString(w, "LDPB1\n")
	for _, e := range tr.Events {
		if err := twoWriteRecord(w, e); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if g, x := got.Sum(nil), want.Sum(nil); !bytes.Equal(g, x) {
		t.Fatalf("%d-event B-Root file: sha256 %x, two-write encoding %x", len(tr.Events), g, x)
	}
}
