package dnsmsg

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"strings"
)

// Question is a query tuple.
type Question struct {
	Name  Name
	Type  Type
	Class Class
}

// String renders the question in dig-like form.
func (q Question) String() string {
	return fmt.Sprintf("%s %s %s", q.Name, q.Class, q.Type)
}

// Msg is a complete DNS message. Header flag bits are unpacked into
// booleans; the OPT pseudo-record, when present, is kept in Additional and
// manipulated through the EDNS helpers.
type Msg struct {
	ID                 uint16
	Response           bool
	Opcode             Opcode
	Authoritative      bool
	Truncated          bool
	RecursionDesired   bool
	RecursionAvailable bool
	AuthenticData      bool
	CheckingDisabled   bool
	Rcode              Rcode

	Question   []Question
	Answer     []RR
	Authority  []RR
	Additional []RR

	// ar is the reusable decode/encode arena attached by UnpackBuffer /
	// PackBuffer / the message pool; nil for messages on the reference
	// path. It survives SetQuestion/SetReply/Unpack/Reset so a pooled
	// message keeps its memory across reuse.
	ar *arena
}

// Errors returned by message decoding.
var (
	ErrShortMsg     = errors.New("dnsmsg: message too short")
	ErrTooManyRRs   = errors.New("dnsmsg: counts exceed message size")
	ErrMsgTooLarge  = errors.New("dnsmsg: message exceeds 65535 bytes")
	ErrLengthPrefix = errors.New("dnsmsg: bad TCP length prefix")
)

const headerLen = 12

// SetQuestion resets m to a fresh query for (name, type) IN class. The
// question slice's capacity is reused, so a pooled message queries
// without allocating.
func (m *Msg) SetQuestion(name Name, t Type) *Msg {
	*m = Msg{
		ID:               m.ID,
		RecursionDesired: m.RecursionDesired,
		Question:         append(m.Question[:0], Question{Name: name, Type: t, Class: ClassINET}),
		ar:               m.ar,
	}
	return m
}

// AppendQuery appends to buf the bytes Pack gives a Msg with this ID,
// every header flag clear, the one question (name, t) IN and, when
// udpSize is not zero, the OPT record SetEDNS(udpSize, do) adds. name is
// in presentation form and is taken as ParseName takes it (lowercased, a
// missing trailing dot implied); on error buf comes back unchanged. Such
// a message has no suffix to compress, so no Name, Msg or compression
// map is built: trace generators write each query straight into place.
func AppendQuery(buf []byte, id uint16, name []byte, t Type, udpSize uint16, do bool) ([]byte, error) {
	if err := CheckName(name); err != nil {
		return buf, err
	}
	start := len(buf)
	buf = append(buf, byte(id>>8), byte(id), 0, 0, 0, 1, 0, 0, 0, 0, 0, 0)
	if name = bytes.TrimSuffix(name, []byte(".")); len(name) > 0 {
		// Copy the name behind a length byte, then turn each dot into the
		// next label's length byte, lowercasing on the way.
		lenAt := len(buf)
		buf = append(append(buf, 0), name...)
		for i := lenAt + 1; i < len(buf); i++ {
			switch c := buf[i]; {
			case c == '.':
				buf[lenAt], lenAt = byte(i-lenAt-1), i
			case c >= 'A' && c <= 'Z':
				buf[i] = c + 'a' - 'A'
			}
		}
		buf[lenAt] = byte(len(buf) - lenAt - 1)
	}
	buf = append(buf, 0, byte(t>>8), byte(t), 0, byte(ClassINET))
	if udpSize != 0 {
		buf[start+11] = 1 // ARCOUNT
		var flags byte
		if do {
			flags = 0x80 // DO, the top bit of the TTL's low 16 bits
		}
		buf = append(buf, 0, byte(TypeOPT>>8), byte(TypeOPT), byte(udpSize>>8), byte(udpSize), 0, 0, flags, 0, 0, 0)
	}
	return buf, nil
}

// SetReply turns m into an empty response to query q, copying ID,
// question, opcode and RD. The question entry aliases q's (including an
// arena-backed name if q was pool-decoded): pack the reply before q is
// reset or released.
func (m *Msg) SetReply(q *Msg) *Msg {
	*m = Msg{
		ID:               q.ID,
		Response:         true,
		Opcode:           q.Opcode,
		RecursionDesired: q.RecursionDesired,
		Question:         m.Question[:0],
		ar:               m.ar,
	}
	if len(q.Question) > 0 {
		m.Question = append(m.Question, q.Question[0])
	}
	return m
}

// SetEDNS attaches (or replaces) an OPT record advertising the given UDP
// payload size and DO bit.
func (m *Msg) SetEDNS(udpSize uint16, do bool) {
	m.removeOPT()
	ttl := uint32(0)
	if do {
		ttl |= 1 << 15 // DO bit is the top bit of the TTL's low 16 bits
	}
	m.Additional = append(m.Additional, RR{
		Name:  Root,
		Type:  TypeOPT,
		Class: Class(udpSize),
		TTL:   ttl,
		Data:  OPT{},
	})
}

func (m *Msg) removeOPT() {
	out := m.Additional[:0]
	for _, rr := range m.Additional {
		if rr.Type != TypeOPT {
			out = append(out, rr)
		}
	}
	m.Additional = out
}

// EDNS reports whether the message carries an OPT record, and if so the
// advertised UDP size and DO bit.
func (m *Msg) EDNS() (udpSize uint16, do bool, present bool) {
	for _, rr := range m.Additional {
		if rr.Type == TypeOPT {
			return uint16(rr.Class), rr.TTL&(1<<15) != 0, true
		}
	}
	return 0, false, false
}

// ResponseLimit is the byte limit a response must fit in, given the
// transport's cap maxSize (0 or less for stream transports: no limit)
// and the query's EDNS: the advertised UDP size floored at MaxUDPSize
// when the query carried an OPT record, maxSize when it did not.
func ResponseLimit(maxSize int, udpSize uint16, hasEDNS bool) int {
	if maxSize <= 0 {
		return 0
	}
	if hasEDNS {
		return max(int(udpSize), MaxUDPSize)
	}
	return maxSize
}

// Truncate turns m into the reply that sends a client to TCP: TC set,
// answer and authority sections empty, and only the OPT record kept in
// the additional section, which is filtered in place.
func (m *Msg) Truncate() {
	m.Truncated = true
	m.Answer = nil
	m.Authority = nil
	kept := m.Additional[:0]
	for _, rr := range m.Additional {
		if rr.Type == TypeOPT {
			kept = append(kept, rr)
		}
	}
	m.Additional = kept
}

// Pack serializes the message with name compression.
func (m *Msg) Pack() ([]byte, error) {
	return m.AppendPack(make([]byte, 0, 512))
}

// AppendPack serializes the message onto buf. The compression map is
// scoped to this message, so buf should be empty or the caller must not
// care about cross-message pointer validity (it is always message-local
// here because offsets are taken relative to the start of buf).
func (m *Msg) AppendPack(buf []byte) ([]byte, error) {
	if len(buf) != 0 {
		return nil, errPackNonEmpty(len(buf))
	}
	return m.appendPack(buf, make(map[Name]int, 8))
}

// errPackNonEmpty rejects packing after existing bytes: compression
// offsets are relative to the message start, so that would corrupt
// pointers.
func errPackNonEmpty(n int) error {
	return fmt.Errorf("dnsmsg: AppendPack requires empty buffer, got %d bytes", n)
}

// appendPack is the body shared by AppendPack (fresh compression map)
// and PackBuffer (arena-held, cleared map).
func (m *Msg) appendPack(buf []byte, cmap map[Name]int) ([]byte, error) {
	var flags uint16
	if m.Response {
		flags |= 1 << 15
	}
	flags |= uint16(m.Opcode&0xF) << 11
	if m.Authoritative {
		flags |= 1 << 10
	}
	if m.Truncated {
		flags |= 1 << 9
	}
	if m.RecursionDesired {
		flags |= 1 << 8
	}
	if m.RecursionAvailable {
		flags |= 1 << 7
	}
	if m.AuthenticData {
		flags |= 1 << 5
	}
	if m.CheckingDisabled {
		flags |= 1 << 4
	}
	flags |= uint16(m.Rcode & 0xF)

	buf = binary.BigEndian.AppendUint16(buf, m.ID)
	buf = binary.BigEndian.AppendUint16(buf, flags)
	buf = binary.BigEndian.AppendUint16(buf, uint16(len(m.Question)))
	buf = binary.BigEndian.AppendUint16(buf, uint16(len(m.Answer)))
	buf = binary.BigEndian.AppendUint16(buf, uint16(len(m.Authority)))
	buf = binary.BigEndian.AppendUint16(buf, uint16(len(m.Additional)))

	var err error
	for _, q := range m.Question {
		if buf, err = appendName(buf, q.Name, cmap); err != nil {
			return nil, err
		}
		buf = binary.BigEndian.AppendUint16(buf, uint16(q.Type))
		buf = binary.BigEndian.AppendUint16(buf, uint16(q.Class))
	}
	for _, sec := range [][]RR{m.Answer, m.Authority, m.Additional} {
		for _, rr := range sec {
			if buf, err = appendRR(buf, rr, cmap, false); err != nil {
				return nil, err
			}
		}
	}
	if len(buf) > MaxMsgSize {
		return nil, ErrMsgTooLarge
	}
	return buf, nil
}

// Unpack parses a wire-format message into m, replacing its contents.
func (m *Msg) Unpack(data []byte) error {
	if len(data) < headerLen {
		return ErrShortMsg
	}
	flags := binary.BigEndian.Uint16(data[2:])
	*m = Msg{
		ar:                 m.ar,
		ID:                 binary.BigEndian.Uint16(data[0:]),
		Response:           flags&(1<<15) != 0,
		Opcode:             Opcode(flags >> 11 & 0xF),
		Authoritative:      flags&(1<<10) != 0,
		Truncated:          flags&(1<<9) != 0,
		RecursionDesired:   flags&(1<<8) != 0,
		RecursionAvailable: flags&(1<<7) != 0,
		AuthenticData:      flags&(1<<5) != 0,
		CheckingDisabled:   flags&(1<<4) != 0,
		Rcode:              Rcode(flags & 0xF),
	}
	qd := int(binary.BigEndian.Uint16(data[4:]))
	an := int(binary.BigEndian.Uint16(data[6:]))
	ns := int(binary.BigEndian.Uint16(data[8:]))
	ar := int(binary.BigEndian.Uint16(data[10:]))
	// A record needs at least 11 bytes (1-byte root name + 10 fixed);
	// a question needs at least 5. Reject counts the message cannot hold.
	if qd*5+(an+ns+ar)*11 > len(data)-headerLen {
		return ErrTooManyRRs
	}

	off := headerLen
	var err error
	if qd > 0 {
		m.Question = make([]Question, 0, qd)
	}
	for i := 0; i < qd; i++ {
		var q Question
		if q.Name, off, err = unpackName(data, off); err != nil {
			return err
		}
		if off+4 > len(data) {
			return ErrShortMsg
		}
		q.Type = Type(binary.BigEndian.Uint16(data[off:]))
		q.Class = Class(binary.BigEndian.Uint16(data[off+2:]))
		off += 4
		m.Question = append(m.Question, q)
	}
	for s, cnt := range []int{an, ns, ar} {
		if cnt == 0 {
			continue
		}
		sec := make([]RR, 0, cnt)
		for i := 0; i < cnt; i++ {
			var rr RR
			if rr.Name, off, err = unpackName(data, off); err != nil {
				return err
			}
			if off+10 > len(data) {
				return ErrShortMsg
			}
			rr.Type = Type(binary.BigEndian.Uint16(data[off:]))
			rr.Class = Class(binary.BigEndian.Uint16(data[off+2:]))
			rr.TTL = binary.BigEndian.Uint32(data[off+4:])
			rdlen := int(binary.BigEndian.Uint16(data[off+8:]))
			off += 10
			if rr.Data, err = unpackRData(data, off, rdlen, rr.Type); err != nil {
				return err
			}
			off += rdlen
			sec = append(sec, rr)
		}
		switch s {
		case 0:
			m.Answer = sec
		case 1:
			m.Authority = sec
		case 2:
			m.Additional = sec
		}
	}
	return nil
}

// WireLen returns the packed size of the message (with compression), or 0
// if it cannot be packed.
func (m *Msg) WireLen() int {
	b, err := m.Pack()
	if err != nil {
		return 0
	}
	return len(b)
}

// String renders a dig-style summary for debugging and the plain-text
// trace format.
func (m *Msg) String() string {
	var sb strings.Builder
	kind := "query"
	if m.Response {
		kind = "response"
	}
	fmt.Fprintf(&sb, ";; %s id=%d opcode=%d rcode=%s", kind, m.ID, m.Opcode, m.Rcode)
	for _, q := range m.Question {
		fmt.Fprintf(&sb, "\n;; question: %s", q)
	}
	for _, rr := range m.Answer {
		fmt.Fprintf(&sb, "\n%s", rr)
	}
	for _, rr := range m.Authority {
		fmt.Fprintf(&sb, "\n%s", rr)
	}
	for _, rr := range m.Additional {
		fmt.Fprintf(&sb, "\n%s", rr)
	}
	return sb.String()
}

// Copy returns a deep-enough copy: section slices are duplicated; rdata
// values are immutable by convention so they are shared. The copy does
// not share the arena (two messages resetting one arena would corrupt
// each other) — use Detach to copy a pooled message's arena-backed
// contents out.
func (m *Msg) Copy() *Msg {
	c := *m
	c.ar = nil
	c.Question = append([]Question(nil), m.Question...)
	c.Answer = append([]RR(nil), m.Answer...)
	c.Authority = append([]RR(nil), m.Authority...)
	c.Additional = append([]RR(nil), m.Additional...)
	return &c
}
