// Arena decoding and message pooling: the allocation-free steady-state
// path of the codec.
//
// Unpack (msg.go) is the reference implementation: every name and every
// rdata field gets its own allocation, which is simple and safe but
// costs ~33 allocs per typical response — far too much for the replay
// and serve hot paths (the paper's §5.2 rates need the per-query cost
// to be almost free). UnpackBuffer decodes the same wire format into a
// per-message arena instead: label bytes, rdata byte fields and strings
// land in one growable buffer, rdata values in per-type slabs, and
// Reset rewinds everything for the next message without freeing it.
// After a few messages the arena reaches the high-water mark of the
// traffic and decoding allocates nothing.
//
// The price is ownership discipline. Arena-backed Names and byte slices
// are views into the arena: they are valid only until the next Reset
// (or UnpackBuffer, which resets first) and become garbage — not stale
// copies, garbage, because the buffer is overwritten in place — the
// moment the message is reused. Nothing may retain any part of a
// pooled Msg past PutMsg. Code that needs to keep a name or a whole
// message calls Name.Clone or Msg.Detach first. TestMsgPoolBalance
// (pool_test.go at the module root) serves traffic through every
// GetMsg path and checks that the pool's Gets and Puts balance; the
// equivalence fuzz target (FuzzUnpackPooledEquivalence) pins
// UnpackBuffer to Unpack's exact accept/reject behavior and decoded
// values.
package dnsmsg

import (
	"encoding/binary"
	"net/netip"
	"strings"
	"sync"
	"sync/atomic"
	"unsafe"
)

// arena is the per-message scratch memory behind UnpackBuffer. All
// fields are write-once per message generation: entries appended while
// decoding one message are never modified afterwards, so slab growth
// (which copies the backing array) leaves previously handed-out
// pointers valid — they keep the old array alive and unchanged.
type arena struct {
	buf   []byte       // name presentation bytes, rdata byte fields, TXT string bytes
	strs  []string     // backing store for TXT.Strings slices
	types []Type       // backing store for NSEC.Types slices
	opts  []EDNSOption // backing store for OPT.Options slices

	// One slab per modeled rdata type; unpackRData returns pointers
	// into these so the RData interface holds a pointer (no boxing
	// allocation) while the values stay pool-owned.
	a      []A
	aaaa   []AAAA
	ns     []NS
	cname  []CNAME
	ptr    []PTR
	soa    []SOA
	mx     []MX
	txt    []TXT
	srv    []SRV
	ds     []DS
	dnskey []DNSKEY
	rrsig  []RRSIG
	nsec   []NSEC
	opt    []OPT
	raw    []Raw

	cmap map[Name]int // compression map reused by PackBuffer
}

// reset rewinds every slab, keeping capacity. Stale entries beyond the
// new length are unreachable through the Msg and are overwritten by the
// next message before anything can read them.
func (ar *arena) reset() {
	ar.buf = ar.buf[:0]
	ar.strs = ar.strs[:0]
	ar.types = ar.types[:0]
	ar.opts = ar.opts[:0]
	ar.a = ar.a[:0]
	ar.aaaa = ar.aaaa[:0]
	ar.ns = ar.ns[:0]
	ar.cname = ar.cname[:0]
	ar.ptr = ar.ptr[:0]
	ar.soa = ar.soa[:0]
	ar.mx = ar.mx[:0]
	ar.txt = ar.txt[:0]
	ar.srv = ar.srv[:0]
	ar.ds = ar.ds[:0]
	ar.dnskey = ar.dnskey[:0]
	ar.rrsig = ar.rrsig[:0]
	ar.nsec = ar.nsec[:0]
	ar.opt = ar.opt[:0]
	ar.raw = ar.raw[:0]
	// cmap is cleared lazily by PackBuffer: its stale keys are never
	// read between packs, clearing here would just do the work twice.
}

// bytes copies src into the arena and returns the copy, nil for empty
// input (matching the reference decoder, whose append([]byte(nil), ...)
// of nothing stays nil). The result is capped so appends by a confused
// caller cannot run into neighboring arena data.
func (ar *arena) bytes(src []byte) []byte {
	if len(src) == 0 {
		return nil
	}
	start := len(ar.buf)
	ar.buf = append(ar.buf, src...)
	return ar.buf[start:len(ar.buf):len(ar.buf)]
}

// str copies src into the arena and returns a string view of the copy.
// Safe because arena bytes are write-once until Reset.
func (ar *arena) str(src []byte) string {
	if len(src) == 0 {
		return ""
	}
	start := len(ar.buf)
	ar.buf = append(ar.buf, src...)
	return unsafe.String(&ar.buf[start], len(src))
}

// unpackName is the arena counterpart of unpackName (name.go): same
// validation, same errors, same canonical lowercase presentation form,
// but label bytes accumulate in the arena instead of a strings.Builder
// and the result is a view, not a fresh string.
func (ar *arena) unpackName(msg []byte, off int) (Name, int, error) {
	start := len(ar.buf)
	ptrBudget := 127 // defend against pointer loops
	end := -1        // offset after the name at the original position
	for {
		if off >= len(msg) {
			return "", 0, ErrBadName
		}
		c := int(msg[off])
		switch {
		case c == 0:
			if end < 0 {
				end = off + 1
			}
			n := len(ar.buf) - start
			if n == 0 {
				return Root, end, nil
			}
			if n+1 > MaxNameLen {
				return "", 0, ErrNameTooLong
			}
			// The pointer is taken only now, after every append for
			// this name: earlier appends may have moved ar.buf.
			return Name(unsafe.String(&ar.buf[start], n)), end, nil
		case c&0xC0 == 0xC0:
			if off+1 >= len(msg) {
				return "", 0, errBadPointer
			}
			if ptrBudget--; ptrBudget < 0 {
				return "", 0, errBadPointer
			}
			target := (c&0x3F)<<8 | int(msg[off+1])
			if end < 0 {
				end = off + 2
			}
			if target >= off {
				// Forward (or self) pointers are invalid and would loop.
				return "", 0, errBadPointer
			}
			off = target
		case c&0xC0 != 0:
			return "", 0, ErrBadName // 0x40/0x80 label types are obsolete
		default:
			if off+1+c > len(msg) {
				return "", 0, ErrBadName
			}
			for _, b := range msg[off+1 : off+1+c] {
				if b == '.' {
					// A dot inside a label cannot round-trip the canonical
					// presentation form this codec keys everything on.
					return "", 0, ErrBadName
				}
				if b >= 'A' && b <= 'Z' {
					b += 'a' - 'A'
				}
				ar.buf = append(ar.buf, b)
			}
			ar.buf = append(ar.buf, '.')
			off += 1 + c
		}
	}
}

// unpackRData is the arena counterpart of unpackRData (rdata.go):
// identical validation and decoded values, but results live in the
// arena's typed slabs and the returned interface wraps a pointer.
func (ar *arena) unpackRData(msg []byte, off, rdlen int, typ Type) (RData, error) {
	end := off + rdlen
	if end > len(msg) {
		return nil, ErrShortRData
	}
	switch typ {
	case TypeA:
		if rdlen != 4 {
			return nil, ErrShortRData
		}
		ar.a = append(ar.a, A{netip.AddrFrom4([4]byte(msg[off:end]))})
		return &ar.a[len(ar.a)-1], nil
	case TypeAAAA:
		if rdlen != 16 {
			return nil, ErrShortRData
		}
		ar.aaaa = append(ar.aaaa, AAAA{netip.AddrFrom16([16]byte(msg[off:end]))})
		return &ar.aaaa[len(ar.aaaa)-1], nil
	case TypeNS:
		n, _, err := ar.unpackName(msg, off)
		if err != nil {
			return nil, err
		}
		ar.ns = append(ar.ns, NS{n})
		return &ar.ns[len(ar.ns)-1], nil
	case TypeCNAME:
		n, _, err := ar.unpackName(msg, off)
		if err != nil {
			return nil, err
		}
		ar.cname = append(ar.cname, CNAME{n})
		return &ar.cname[len(ar.cname)-1], nil
	case TypePTR:
		n, _, err := ar.unpackName(msg, off)
		if err != nil {
			return nil, err
		}
		ar.ptr = append(ar.ptr, PTR{n})
		return &ar.ptr[len(ar.ptr)-1], nil
	case TypeSOA:
		var d SOA
		var err error
		var o int
		if d.MName, o, err = ar.unpackName(msg, off); err != nil {
			return nil, err
		}
		if d.RName, o, err = ar.unpackName(msg, o); err != nil {
			return nil, err
		}
		if o+20 > len(msg) || o+20 > end {
			return nil, ErrShortRData
		}
		d.Serial = binary.BigEndian.Uint32(msg[o:])
		d.Refresh = binary.BigEndian.Uint32(msg[o+4:])
		d.Retry = binary.BigEndian.Uint32(msg[o+8:])
		d.Expire = binary.BigEndian.Uint32(msg[o+12:])
		d.Minimum = binary.BigEndian.Uint32(msg[o+16:])
		ar.soa = append(ar.soa, d)
		return &ar.soa[len(ar.soa)-1], nil
	case TypeMX:
		if rdlen < 3 {
			return nil, ErrShortRData
		}
		pref := binary.BigEndian.Uint16(msg[off:])
		n, _, err := ar.unpackName(msg, off+2)
		if err != nil {
			return nil, err
		}
		ar.mx = append(ar.mx, MX{pref, n})
		return &ar.mx[len(ar.mx)-1], nil
	case TypeTXT:
		strStart := len(ar.strs)
		for o := off; o < end; {
			l := int(msg[o])
			if o+1+l > end {
				return nil, ErrShortRData
			}
			ar.strs = append(ar.strs, ar.str(msg[o+1:o+1+l]))
			o += 1 + l
		}
		var d TXT
		if len(ar.strs) > strStart {
			d.Strings = ar.strs[strStart:len(ar.strs):len(ar.strs)]
		}
		ar.txt = append(ar.txt, d)
		return &ar.txt[len(ar.txt)-1], nil
	case TypeSRV:
		if rdlen < 7 {
			return nil, ErrShortRData
		}
		var d SRV
		d.Priority = binary.BigEndian.Uint16(msg[off:])
		d.Weight = binary.BigEndian.Uint16(msg[off+2:])
		d.Port = binary.BigEndian.Uint16(msg[off+4:])
		var err error
		if d.Target, _, err = ar.unpackName(msg, off+6); err != nil {
			return nil, err
		}
		ar.srv = append(ar.srv, d)
		return &ar.srv[len(ar.srv)-1], nil
	case TypeDS:
		if rdlen < 4 {
			return nil, ErrShortRData
		}
		ar.ds = append(ar.ds, DS{
			KeyTag:     binary.BigEndian.Uint16(msg[off:]),
			Algorithm:  msg[off+2],
			DigestType: msg[off+3],
			Digest:     ar.bytes(msg[off+4 : end]),
		})
		return &ar.ds[len(ar.ds)-1], nil
	case TypeDNSKEY:
		if rdlen < 4 {
			return nil, ErrShortRData
		}
		ar.dnskey = append(ar.dnskey, DNSKEY{
			Flags:     binary.BigEndian.Uint16(msg[off:]),
			Protocol:  msg[off+2],
			Algorithm: msg[off+3],
			PublicKey: ar.bytes(msg[off+4 : end]),
		})
		return &ar.dnskey[len(ar.dnskey)-1], nil
	case TypeRRSIG:
		if rdlen < 18 {
			return nil, ErrShortRData
		}
		var d RRSIG
		d.TypeCovered = Type(binary.BigEndian.Uint16(msg[off:]))
		d.Algorithm = msg[off+2]
		d.Labels = msg[off+3]
		d.OrigTTL = binary.BigEndian.Uint32(msg[off+4:])
		d.Expiration = binary.BigEndian.Uint32(msg[off+8:])
		d.Inception = binary.BigEndian.Uint32(msg[off+12:])
		d.KeyTag = binary.BigEndian.Uint16(msg[off+16:])
		var err error
		var o int
		if d.SignerName, o, err = ar.unpackName(msg, off+18); err != nil {
			return nil, err
		}
		if o > end {
			return nil, ErrShortRData
		}
		d.Signature = ar.bytes(msg[o:end])
		ar.rrsig = append(ar.rrsig, d)
		return &ar.rrsig[len(ar.rrsig)-1], nil
	case TypeNSEC:
		var d NSEC
		var err error
		var o int
		if d.NextName, o, err = ar.unpackName(msg, off); err != nil {
			return nil, err
		}
		typeStart := len(ar.types)
		for o < end {
			if o+2 > end {
				return nil, ErrShortRData
			}
			win, l := msg[o], int(msg[o+1])
			if o+2+l > end || l > 32 {
				return nil, ErrShortRData
			}
			for i := 0; i < l; i++ {
				for bit := 0; bit < 8; bit++ {
					if msg[o+2+i]&(0x80>>bit) != 0 {
						ar.types = append(ar.types, Type(uint16(win)<<8|uint16(i*8+bit)))
					}
				}
			}
			o += 2 + l
		}
		if len(ar.types) > typeStart {
			d.Types = ar.types[typeStart:len(ar.types):len(ar.types)]
		}
		ar.nsec = append(ar.nsec, d)
		return &ar.nsec[len(ar.nsec)-1], nil
	case TypeOPT:
		var d OPT
		optStart := len(ar.opts)
		for o := off; o < end; {
			if o+4 > end {
				return nil, ErrShortRData
			}
			code := binary.BigEndian.Uint16(msg[o:])
			l := int(binary.BigEndian.Uint16(msg[o+2:]))
			if o+4+l > end {
				return nil, ErrShortRData
			}
			ar.opts = append(ar.opts, EDNSOption{code, ar.bytes(msg[o+4 : o+4+l])})
			o += 4 + l
		}
		if len(ar.opts) > optStart {
			d.Options = ar.opts[optStart:len(ar.opts):len(ar.opts)]
		}
		ar.opt = append(ar.opt, d)
		return &ar.opt[len(ar.opt)-1], nil
	default:
		ar.raw = append(ar.raw, Raw{ar.bytes(msg[off:end])})
		return &ar.raw[len(ar.raw)-1], nil
	}
}

// Reset clears the message for reuse, keeping the section slices'
// capacity and rewinding the arena (if any). Every Name, byte slice and
// rdata pointer previously handed out by UnpackBuffer on this message
// is invalid afterwards.
func (m *Msg) Reset() {
	if m.ar != nil {
		m.ar.reset()
	}
	*m = Msg{
		Question:   m.Question[:0],
		Answer:     m.Answer[:0],
		Authority:  m.Authority[:0],
		Additional: m.Additional[:0],
		ar:         m.ar,
	}
}

// UnpackBuffer parses a wire-format message into m, replacing its
// contents, exactly like Unpack but without per-field allocations:
// names and rdata decode into m's arena, which Reset (called first)
// rewinds and reuses. Accept/reject behavior and decoded values are
// identical to Unpack — FuzzUnpackPooledEquivalence holds the two
// decoders together — except that rdata interfaces hold pointers
// (*A, *NS, ...) instead of values, and empty sections are zero-length
// slices rather than nil once the message has been reused.
//
// The decoded message aliases the arena, not data; data may be reused
// as soon as UnpackBuffer returns.
func (m *Msg) UnpackBuffer(data []byte) error {
	m.Reset()
	if m.ar == nil {
		m.ar = &arena{}
	}
	if len(data) < headerLen {
		return ErrShortMsg
	}
	flags := binary.BigEndian.Uint16(data[2:])
	m.ID = binary.BigEndian.Uint16(data[0:])
	m.Response = flags&(1<<15) != 0
	m.Opcode = Opcode(flags >> 11 & 0xF)
	m.Authoritative = flags&(1<<10) != 0
	m.Truncated = flags&(1<<9) != 0
	m.RecursionDesired = flags&(1<<8) != 0
	m.RecursionAvailable = flags&(1<<7) != 0
	m.AuthenticData = flags&(1<<5) != 0
	m.CheckingDisabled = flags&(1<<4) != 0
	m.Rcode = Rcode(flags & 0xF)

	qd := int(binary.BigEndian.Uint16(data[4:]))
	an := int(binary.BigEndian.Uint16(data[6:]))
	ns := int(binary.BigEndian.Uint16(data[8:]))
	ad := int(binary.BigEndian.Uint16(data[10:]))
	// Same capacity guard as the reference decoder.
	if qd*5+(an+ns+ad)*11 > len(data)-headerLen {
		return ErrTooManyRRs
	}

	off := headerLen
	var err error
	for i := 0; i < qd; i++ {
		var q Question
		if q.Name, off, err = m.ar.unpackName(data, off); err != nil {
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
	for s := 0; s < 3; s++ {
		var cnt int
		switch s {
		case 0:
			cnt = an
		case 1:
			cnt = ns
		case 2:
			cnt = ad
		}
		for i := 0; i < cnt; i++ {
			var rr RR
			if rr.Name, off, err = m.ar.unpackName(data, off); err != nil {
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
			if rr.Data, err = m.ar.unpackRData(data, off, rdlen, rr.Type); err != nil {
				return err
			}
			off += rdlen
			switch s {
			case 0:
				m.Answer = append(m.Answer, rr)
			case 1:
				m.Authority = append(m.Authority, rr)
			case 2:
				m.Additional = append(m.Additional, rr)
			}
		}
	}
	return nil
}

// PackBuffer serializes the message onto buf (which must be empty, as
// for AppendPack) reusing the message's arena-held compression map, so
// steady-state packing of a pooled message allocates only when buf is
// too small.
func (m *Msg) PackBuffer(buf []byte) ([]byte, error) {
	if len(buf) != 0 {
		return nil, errPackNonEmpty(len(buf))
	}
	if m.ar == nil {
		m.ar = &arena{}
	}
	if m.ar.cmap == nil {
		m.ar.cmap = make(map[Name]int, 8)
	} else {
		clear(m.ar.cmap)
	}
	return m.appendPack(buf, m.ar.cmap)
}

// Clone returns a copy of the name backed by its own memory, safe to
// retain after the arena-backed original is reset. Names from ParseName
// or literals don't need it; names out of a pooled message do, before
// they become map keys or outlive the message.
func (n Name) Clone() Name {
	if n == "" {
		return ""
	}
	if n == Root {
		return Root
	}
	return Name(strings.Clone(string(n)))
}

// Detach returns a deep copy of the message backed by ordinary
// heap-allocated memory: names are cloned, rdata pointers into arena
// slabs are converted back to the value forms the reference decoder
// produces, and zero-length sections normalize to nil. The copy is
// safe to retain after PutMsg; it compares deep-equal to what Unpack
// would have produced from the same wire.
func (m *Msg) Detach() *Msg {
	c := &Msg{
		ID:                 m.ID,
		Response:           m.Response,
		Opcode:             m.Opcode,
		Authoritative:      m.Authoritative,
		Truncated:          m.Truncated,
		RecursionDesired:   m.RecursionDesired,
		RecursionAvailable: m.RecursionAvailable,
		AuthenticData:      m.AuthenticData,
		CheckingDisabled:   m.CheckingDisabled,
		Rcode:              m.Rcode,
	}
	if len(m.Question) > 0 {
		c.Question = make([]Question, len(m.Question))
		for i, q := range m.Question {
			q.Name = q.Name.Clone()
			c.Question[i] = q
		}
	}
	c.Answer = detachSection(m.Answer)
	c.Authority = detachSection(m.Authority)
	c.Additional = detachSection(m.Additional)
	return c
}

func detachSection(sec []RR) []RR {
	if len(sec) == 0 {
		return nil
	}
	out := make([]RR, len(sec))
	for i, rr := range sec {
		rr.Name = rr.Name.Clone()
		rr.Data = detachRData(rr.Data)
		out[i] = rr
	}
	return out
}

// detachRData converts pooled (pointer, arena-backed) rdata to the
// self-contained value form. Value-form rdata passes through untouched:
// by convention it is immutable and already heap-owned.
func detachRData(d RData) RData {
	switch v := d.(type) {
	case *A:
		return A{v.Addr}
	case *AAAA:
		return AAAA{v.Addr}
	case *NS:
		return NS{v.Host.Clone()}
	case *CNAME:
		return CNAME{v.Target.Clone()}
	case *PTR:
		return PTR{v.Target.Clone()}
	case *SOA:
		c := *v
		c.MName = c.MName.Clone()
		c.RName = c.RName.Clone()
		return c
	case *MX:
		return MX{v.Preference, v.Host.Clone()}
	case *TXT:
		if v.Strings == nil {
			return TXT{}
		}
		strs := make([]string, len(v.Strings))
		for i, s := range v.Strings {
			strs[i] = strings.Clone(s)
		}
		return TXT{strs}
	case *SRV:
		c := *v
		c.Target = c.Target.Clone()
		return c
	case *DS:
		c := *v
		c.Digest = cloneBytes(c.Digest)
		return c
	case *DNSKEY:
		c := *v
		c.PublicKey = cloneBytes(c.PublicKey)
		return c
	case *RRSIG:
		c := *v
		c.SignerName = c.SignerName.Clone()
		c.Signature = cloneBytes(c.Signature)
		return c
	case *NSEC:
		c := *v
		c.NextName = c.NextName.Clone()
		if c.Types != nil {
			c.Types = append([]Type(nil), c.Types...)
		}
		return c
	case *OPT:
		var c OPT
		if v.Options != nil {
			c.Options = make([]EDNSOption, len(v.Options))
			for i, o := range v.Options {
				o.Data = cloneBytes(o.Data)
				c.Options[i] = o
			}
		}
		return c
	case *Raw:
		return Raw{cloneBytes(v.Data)}
	default:
		return d
	}
}

func cloneBytes(b []byte) []byte {
	if b == nil {
		return nil
	}
	return append([]byte(nil), b...)
}

// Message pool. GetMsg returns a Msg ready for UnpackBuffer/SetReply;
// PutMsg resets it and returns it for reuse. The rule is strict: after
// PutMsg nothing may touch the message or anything decoded from it
// (Detach/Clone first). TestMsgPoolBalance holds every GetMsg to a
// PutMsg, across calls too.
var msgPool = sync.Pool{
	New: func() any {
		poolNews.Add(1)
		return &Msg{ar: &arena{}}
	},
}

var poolGets, poolPuts, poolNews atomic.Uint64

// GetMsg takes a reset Msg with an attached arena from the pool.
func GetMsg() *Msg {
	poolGets.Add(1)
	return msgPool.Get().(*Msg)
}

// PutMsg resets m and returns it to the pool. A nil m is a no-op.
func PutMsg(m *Msg) {
	if m == nil {
		return
	}
	m.Reset()
	poolPuts.Add(1)
	msgPool.Put(m)
}

// MsgPoolStats is a snapshot of the message pool's counters.
type MsgPoolStats struct {
	Gets uint64 // GetMsg calls
	Puts uint64 // PutMsg calls (non-nil)
	News uint64 // pool misses that allocated a fresh Msg
}

// PoolStats reports pool traffic. The miss rate News/Gets should drop
// to ~0 in steady state; observability layers above dnsmsg (which must
// stay dependency-free) export these through obs.
func PoolStats() MsgPoolStats {
	return MsgPoolStats{
		Gets: poolGets.Load(),
		Puts: poolPuts.Load(),
		News: poolNews.Load(),
	}
}
