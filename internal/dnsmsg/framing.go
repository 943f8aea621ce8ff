package dnsmsg

import (
	"encoding/binary"
	"fmt"
	"io"
)

// DNS over TCP and TLS frames each message with a 2-byte big-endian
// length prefix (RFC 1035 §4.2.2, RFC 7858). These helpers are shared by
// the server listeners, the replay queriers and the resolver's TCP path.

// WriteTCPMsg writes one length-prefixed DNS message to w.
func WriteTCPMsg(w io.Writer, msg []byte) error {
	if len(msg) > MaxMsgSize {
		return ErrMsgTooLarge
	}
	var pfx [2]byte
	binary.BigEndian.PutUint16(pfx[:], uint16(len(msg)))
	// Write prefix and body in one call where possible to avoid two
	// segments on the wire (the Nagle interaction the paper tunes away).
	buf := make([]byte, 0, 2+len(msg))
	buf = append(buf, pfx[:]...)
	buf = append(buf, msg...)
	_, err := w.Write(buf)
	return err
}

// ReadTCPMsg reads one length-prefixed DNS message from r. It returns
// io.EOF cleanly when the stream ends on a message boundary.
func ReadTCPMsg(r io.Reader) ([]byte, error) {
	var pfx [2]byte
	n, err := ReadTCPLen(r, &pfx)
	if err != nil {
		return nil, err
	}
	buf := make([]byte, n)
	if err := ReadTCPBody(r, buf); err != nil {
		return nil, err
	}
	return buf, nil
}

// ReadTCPLen reads one 2-byte length prefix from r into the caller's
// scratch pfx and returns the body length it announces, so a reader can
// wait for the next message without holding a body buffer. It returns
// io.EOF cleanly when the stream ends on a message boundary,
// io.ErrUnexpectedEOF inside the prefix, and ErrLengthPrefix for a
// zero length.
func ReadTCPLen(r io.Reader, pfx *[2]byte) (int, error) {
	if _, err := io.ReadFull(r, pfx[:]); err != nil {
		return 0, err // io.EOF on clean close
	}
	n := int(binary.BigEndian.Uint16(pfx[:]))
	if n == 0 {
		return 0, fmt.Errorf("%w: zero length", ErrLengthPrefix)
	}
	return n, nil
}

// ReadTCPBody reads exactly len(body) bytes — the body ReadTCPLen
// announced — reporting a stream that ends short as io.ErrUnexpectedEOF.
func ReadTCPBody(r io.Reader, body []byte) error {
	if _, err := io.ReadFull(r, body); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return err
	}
	return nil
}

// AppendTCPMsg appends the length-prefixed form of msg to dst, for
// batching multiple messages into one write.
func AppendTCPMsg(dst, msg []byte) ([]byte, error) {
	if len(msg) > MaxMsgSize {
		return dst, ErrMsgTooLarge
	}
	dst = binary.BigEndian.AppendUint16(dst, uint16(len(msg)))
	return append(dst, msg...), nil
}
