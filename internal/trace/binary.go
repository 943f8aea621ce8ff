package trace

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"net/netip"
	"time"

	"ldplayer/internal/dnsmsg"
)

// The internal binary stream (paper §2.5 "Binary for fast processing"):
// a magic header, then length-prefixed records, each a fixed header plus
// the packed DNS message. Pre-pending the length lets the reader slice
// records without parsing.

var binaryMagic = []byte("LDPB1\n")

const binRecordFixed = 8 + 16 + 2 + 16 + 2 + 1 // time + src + dst + proto

// BinaryWriter emits the internal binary stream.
type BinaryWriter struct {
	w           *bufio.Writer
	wroteHeader bool
}

// NewBinaryWriter wraps w.
func NewBinaryWriter(w io.Writer) *BinaryWriter {
	return &BinaryWriter{w: bufio.NewWriterSize(w, 1<<16)}
}

// Write appends one record. Its header and wire are appended to the
// buffered writer's free space and written in one copy, flushing first
// when the record does not fit. A wire longer than the 65 535 bytes a
// DNS message may take is refused before anything is written, since
// the reader would reject the record.
func (bw *BinaryWriter) Write(e *Event) error {
	if len(e.Wire) > dnsmsg.MaxMsgSize {
		return fmt.Errorf("trace: %d-byte wire exceeds %d bytes", len(e.Wire), dnsmsg.MaxMsgSize)
	}
	if !bw.wroteHeader {
		if _, err := bw.w.Write(binaryMagic); err != nil {
			return err
		}
		bw.wroteHeader = true
	}
	total := binRecordFixed + len(e.Wire)
	if bw.w.Available() < 4+total {
		if err := bw.w.Flush(); err != nil {
			return err
		}
	}
	b := bw.w.AvailableBuffer()
	b = binary.BigEndian.AppendUint32(b, uint32(total))
	b = binary.BigEndian.AppendUint64(b, uint64(e.Time.UnixNano()))
	src16 := e.Src.Addr().As16()
	b = binary.BigEndian.AppendUint16(append(b, src16[:]...), e.Src.Port())
	dst16 := e.Dst.Addr().As16()
	b = binary.BigEndian.AppendUint16(append(b, dst16[:]...), e.Dst.Port())
	b = append(append(b, byte(e.Proto)), e.Wire...)
	_, err := bw.w.Write(b)
	return err
}

// Flush drains buffered records to the underlying writer.
func (bw *BinaryWriter) Flush() error { return bw.w.Flush() }

// BinaryReader streams records from the internal binary format.
type BinaryReader struct {
	r          *bufio.Reader
	readHeader bool
	lenBuf     [4]byte
}

// NewBinaryReader wraps r.
func NewBinaryReader(r io.Reader) *BinaryReader {
	return &BinaryReader{r: bufio.NewReaderSize(r, 1<<16)}
}

// Read returns the next record or io.EOF.
func (br *BinaryReader) Read() (*Event, error) {
	if !br.readHeader {
		magic := make([]byte, len(binaryMagic))
		if _, err := io.ReadFull(br.r, magic); err != nil {
			return nil, err
		}
		if string(magic) != string(binaryMagic) {
			return nil, fmt.Errorf("trace: bad binary magic %q", magic)
		}
		br.readHeader = true
	}
	if _, err := io.ReadFull(br.r, br.lenBuf[:]); err != nil {
		return nil, err // io.EOF on clean end
	}
	total := int(binary.BigEndian.Uint32(br.lenBuf[:]))
	if total < binRecordFixed || total > binRecordFixed+dnsmsg.MaxMsgSize {
		return nil, fmt.Errorf("trace: bad record length %d", total)
	}
	buf := make([]byte, total)
	if _, err := io.ReadFull(br.r, buf); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return nil, err
	}
	e := &Event{}
	e.Time = unixNano(int64(binary.BigEndian.Uint64(buf[0:])))
	e.Src = netip.AddrPortFrom(unmap(netip.AddrFrom16([16]byte(buf[8:24]))), binary.BigEndian.Uint16(buf[24:]))
	e.Dst = netip.AddrPortFrom(unmap(netip.AddrFrom16([16]byte(buf[26:42]))), binary.BigEndian.Uint16(buf[42:]))
	e.Proto = Proto(buf[44])
	e.Wire = buf[45:]
	return e, nil
}

// ReadBatch implements BatchReader: it decodes up to len(dst) records
// in one call, stopping early (short count, nil error) only at end of
// stream so the replay controller's batch loop never blocks holding a
// partial batch. The per-record decode is shared with Read.
func (br *BinaryReader) ReadBatch(dst []*Event) (int, error) {
	for i := range dst {
		e, err := br.Read()
		if err != nil {
			if i > 0 {
				return i, nil // terminal error re-surfaces on the next call
			}
			return 0, err
		}
		dst[i] = e
	}
	return len(dst), nil
}

func unmap(a netip.Addr) netip.Addr { return a.Unmap() }

func unixNano(ns int64) time.Time { return time.Unix(0, ns) }
