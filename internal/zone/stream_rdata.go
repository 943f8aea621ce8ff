package zone

import (
	"encoding/base64"
	"encoding/hex"
	"fmt"
	"net/netip"
	"strconv"
	"strings"
	"unicode"
	"unicode/utf8"

	"ldplayer/internal/dnsmsg"
)

// Byte-level scalar parsers for the streaming tokenizer. The TTL,
// class and type scanners run on every token while decodeRecord works
// out which token is which, so they neither allocate nor build errors;
// each replicates exactly what the reference parser's call accepts
// (including its quirks — fmt.Sscanf's tolerated trailing garbage,
// parseTTL's uint64 wraparound), and a caller that needs the exact
// error re-runs the reference's call. TestScalarParserEquivalence drives
// each pair over large random corpora. Addresses and integer fields need
// no copy: they go to netip and strconv over the token's bytes.

// ttlFromTok reports the value parseTTL would return for this token,
// ok=false iff parseTTL would error. Quoted tokens carry the \x00
// marker in the reference and always fail there. Alloc- and error-free
// so the TTL/class sniffing loop can call it per token.
func ttlFromTok(b []byte, quoted bool) (uint32, bool) {
	if quoted || len(b) == 0 {
		return 0, false
	}
	// Plain seconds: strconv.ParseUint(s, 10, 32).
	allDigits := true
	v := uint64(0)
	ovf := false
	for _, c := range b {
		if c < '0' || c > '9' {
			allDigits = false
			break
		}
		if v > (1<<64-1)/10 {
			ovf = true
		}
		v = v*10 + uint64(c-'0')
		if v>>32 != 0 {
			ovf = true
		}
	}
	if allDigits && !ovf {
		return uint32(v), true
	}
	// Unit-suffix path. The reference lowercases (only ASCII letters
	// can become units) and wraps uint64 on overflow; replicate both.
	total, num := uint64(0), uint64(0)
	seen := false
	for _, c := range b {
		switch {
		case c >= '0' && c <= '9':
			num = num*10 + uint64(c-'0')
			seen = true
		default:
			var mult uint64
			switch c | 0x20 { // ASCII lowercase
			case 's':
				mult = 1
			case 'm':
				mult = 60
			case 'h':
				mult = 3600
			case 'd':
				mult = 86400
			case 'w':
				mult = 604800
			default:
				return 0, false
			}
			// Only the ASCII unit letters (either case) can produce a
			// unit value under c|0x20, so no extra letter check needed.
			if !seen {
				return 0, false
			}
			total += num * mult
			num, seen = 0, false
		}
	}
	if seen {
		total += num
	}
	if total > 1<<31 {
		return 0, false
	}
	return uint32(total), true
}

// classFromTok replicates dnsmsg.ClassFromString: the IN/CH/ANY
// mnemonics or the CLASS### form as fmt.Sscanf("CLASS%d", &uint16)
// accepts it.
func classFromTok(b []byte, quoted bool) (dnsmsg.Class, bool) {
	if quoted {
		return 0, false
	}
	if c, ok := dnsmsg.ClassFromBytes(b); ok {
		return c, true
	}
	n, ok := scanPrefixedUint16(b, "CLASS")
	return dnsmsg.Class(n), ok
}

// typeFromTok replicates dnsmsg.TypeFromString: mnemonic table or the
// TYPE### form.
func typeFromTok(b []byte, quoted bool) (dnsmsg.Type, bool) {
	if quoted {
		return 0, false
	}
	if t, ok := dnsmsg.TypeFromBytes(b); ok {
		return t, true
	}
	n, ok := scanPrefixedUint16(b, "TYPE")
	return dnsmsg.Type(n), ok
}

// scanPrefixedUint16 replicates fmt.Sscanf(s, prefix+"%d", &uint16):
// the exact prefix, any white space (a token can hold \r, \v, \f and
// Unicode spaces), then a maximal run of at least one decimal digit
// whose value fits uint16; trailing garbage is tolerated ("TYPE5x"
// scans as 5), signs are not.
func scanPrefixedUint16(b []byte, prefix string) (uint16, bool) {
	if len(b) < len(prefix) || string(b[:len(prefix)]) != prefix {
		return 0, false
	}
	b = b[len(prefix):]
	for len(b) > 0 {
		r, size := utf8.DecodeRune(b)
		if !unicode.IsSpace(r) {
			break
		}
		b = b[size:]
	}
	i := 0
	v := uint64(0)
	for i < len(b) && b[i] >= '0' && b[i] <= '9' {
		v = v*10 + uint64(b[i]-'0')
		if v > 1<<17 {
			v = 1 << 17 // clamp; any overflow fails below
		}
		i++
	}
	if i == 0 || v > 0xFFFF {
		return 0, false
	}
	return uint16(v), true
}

// parseAddrTok is netip.ParseAddr over the token's bytes, read in
// place. On success netip keeps nothing of its input (a zone suffix is
// interned by copy); its error would hold the input, so it is dropped
// here and callers build their message from classicTok.
func parseAddrTok(b []byte) (netip.Addr, bool) {
	a, err := netip.ParseAddr(tokString(b))
	return a, err == nil
}

// decodeRData fills rec's rdata fields from the tail tokens, with the
// reference parser's field grammar and error strings.
func (sp *StreamParser) decodeRData(rec *Rec, typ dnsmsg.Type, f []tokRef) error {
	need := func(n int) error {
		if len(f) < n {
			return fmt.Errorf("want %d rdata fields, have %d", n, len(f))
		}
		return nil
	}
	// number parses a bounded integer field with strconv, in place: a
	// strconv error carries a copy of its input. A quoted token takes
	// the reference's string form, for the exact error.
	number := func(t tokRef, bits int) (uint64, error) {
		if t.quoted {
			_, err := strconv.ParseUint(sp.classicTok(t), 10, bits)
			return 0, err
		}
		return strconv.ParseUint(tokString(sp.tokBytes(t)), 10, bits)
	}
	// ttlField parses a parseTTL-grammar field (SOA timers), again with
	// the exact reference error on failure.
	ttlField := func(t tokRef) (uint32, error) {
		if v, ok := ttlFromTok(sp.tokBytes(t), t.quoted); ok {
			return v, nil
		}
		_, err := parseTTL(sp.classicTok(t))
		return 0, err
	}
	// nameField expands a name with the owner rules.
	nameField := func(t tokRef) ([]byte, error) { return sp.canonName(t) }

	switch typ {
	case dnsmsg.TypeA:
		if err := need(1); err != nil {
			return err
		}
		b := sp.tokBytes(f[0])
		a, ok := parseAddrTok(b)
		if f[0].quoted || !ok || !a.Is4() {
			return fmt.Errorf("bad IPv4 %q", sp.classicTok(f[0]))
		}
		rec.addr = a
	case dnsmsg.TypeAAAA:
		if err := need(1); err != nil {
			return err
		}
		b := sp.tokBytes(f[0])
		a, ok := parseAddrTok(b)
		if f[0].quoted || !ok || !a.Is6() {
			return fmt.Errorf("bad IPv6 %q", sp.classicTok(f[0]))
		}
		rec.addr = a
	case dnsmsg.TypeNS, dnsmsg.TypeCNAME, dnsmsg.TypePTR:
		if err := need(1); err != nil {
			return err
		}
		n, err := nameField(f[0])
		rec.name1 = n
		return err
	case dnsmsg.TypeMX:
		if err := need(2); err != nil {
			return err
		}
		pref, err := number(f[0], 16)
		if err != nil {
			return err
		}
		rec.u16s[0] = uint16(pref)
		n, err := nameField(f[1])
		rec.name1 = n
		return err
	case dnsmsg.TypeTXT:
		if err := need(1); err != nil {
			return err
		}
		rec.strs = rec.strs[:0]
		for _, t := range f {
			b := sp.tokBytes(t)
			if !t.quoted && len(b) > 0 && b[0] == 0 {
				b = b[1:] // the reference takes a bare leading NUL for its quote marker
			}
			rec.strs = append(rec.strs, b)
		}
	case dnsmsg.TypeSOA:
		if err := need(7); err != nil {
			return err
		}
		var err error
		if rec.name1, err = nameField(f[0]); err != nil {
			return err
		}
		if rec.name2, err = nameField(f[1]); err != nil {
			return err
		}
		for i := 0; i < 5; i++ {
			v, err := ttlField(f[2+i])
			if err != nil {
				return err
			}
			rec.u32s[i] = v
		}
	case dnsmsg.TypeSRV:
		if err := need(4); err != nil {
			return err
		}
		for i := 0; i < 3; i++ {
			v, err := number(f[i], 16)
			if err != nil {
				return err
			}
			rec.u16s[i] = uint16(v)
		}
		n, err := nameField(f[3])
		rec.name1 = n
		return err
	case dnsmsg.TypeDS:
		if err := need(4); err != nil {
			return err
		}
		tag, err := number(f[0], 16)
		if err != nil {
			return err
		}
		alg, err := number(f[1], 8)
		if err != nil {
			return err
		}
		dt, err := number(f[2], 8)
		if err != nil {
			return err
		}
		rec.u16s[0], rec.u8s[0], rec.u8s[1] = uint16(tag), uint8(alg), uint8(dt)
		dig, err := sp.hexField(f[3:])
		rec.blob = dig
		return err
	case dnsmsg.TypeDNSKEY:
		if err := need(4); err != nil {
			return err
		}
		flags, err := number(f[0], 16)
		if err != nil {
			return err
		}
		proto, err := number(f[1], 8)
		if err != nil {
			return err
		}
		alg, err := number(f[2], 8)
		if err != nil {
			return err
		}
		rec.u16s[0], rec.u8s[0], rec.u8s[1] = uint16(flags), uint8(proto), uint8(alg)
		key, err := sp.base64Field(f[3:])
		rec.blob = key
		return err
	case dnsmsg.TypeRRSIG:
		if err := need(9); err != nil {
			return err
		}
		covered, ok := typeFromTok(sp.tokBytes(f[0]), f[0].quoted)
		if !ok {
			_, err := dnsmsg.TypeFromString(sp.classicTok(f[0]))
			return err
		}
		alg, err := number(f[1], 8)
		if err != nil {
			return err
		}
		labels, err := number(f[2], 8)
		if err != nil {
			return err
		}
		ottl, err := number(f[3], 32)
		if err != nil {
			return err
		}
		exp, err := number(f[4], 32)
		if err != nil {
			return err
		}
		inc, err := number(f[5], 32)
		if err != nil {
			return err
		}
		tag, err := number(f[6], 16)
		if err != nil {
			return err
		}
		if rec.name1, err = nameField(f[7]); err != nil {
			return err
		}
		rec.cov = covered
		rec.u8s[0], rec.u8s[1] = uint8(alg), uint8(labels)
		rec.u32s[0], rec.u32s[1], rec.u32s[2] = uint32(ottl), uint32(exp), uint32(inc)
		rec.u16s[0] = uint16(tag)
		sig, err := sp.base64Field(f[8:])
		rec.blob = sig
		return err
	case dnsmsg.TypeNSEC:
		if err := need(1); err != nil {
			return err
		}
		next, err := nameField(f[0])
		if err != nil {
			return err
		}
		rec.name1 = next
		rec.types = rec.types[:0]
		for _, t := range f[1:] {
			tt, ok := typeFromTok(sp.tokBytes(t), t.quoted)
			if !ok {
				_, err := dnsmsg.TypeFromString(sp.classicTok(t))
				return err
			}
			rec.types = append(rec.types, tt)
		}
	default:
		// RFC 3597 generic form: rare enough to run the reference code
		// verbatim (allocations and all) so behavior is identical.
		if len(f) >= 2 && !f[0].quoted && string(sp.tokBytes(f[0])) == "\\#" {
			n, err := strconv.Atoi(sp.classicTok(f[1]))
			if err != nil {
				return err
			}
			parts := make([]string, 0, len(f)-2)
			for _, t := range f[2:] {
				parts = append(parts, sp.classicTok(t))
			}
			raw, err := hex.DecodeString(strings.ToLower(strings.Join(parts, "")))
			if err != nil {
				return err
			}
			if len(raw) != n {
				return fmt.Errorf("\\# length %d != %d data bytes", n, len(raw))
			}
			rec.blob = raw
			return nil
		}
		return fmt.Errorf("unsupported rdata for %s", typ)
	}
	return nil
}

// hexField joins the remaining tokens, lowercases, and hex-decodes into
// the arena: hex.DecodeString(strings.ToLower(strings.Join(f, ""))) with
// identical accept/reject behavior and no allocation on the fast path.
func (sp *StreamParser) hexField(f []tokRef) ([]byte, error) {
	for _, t := range f {
		if t.quoted {
			return sp.hexFieldSlow(f)
		}
	}
	join := len(sp.arena)
	for _, t := range f {
		for _, c := range sp.tokBytes(t) {
			if c >= 'A' && c <= 'Z' {
				c += 'a' - 'A'
			}
			sp.arena = append(sp.arena, c)
		}
	}
	src := sp.arena[join:]
	if len(src)%2 != 0 {
		sp.arena = sp.arena[:join]
		return nil, hex.ErrLength
	}
	dst := sp.arena[len(sp.arena) : len(sp.arena)+hex.DecodedLen(len(src))]
	n, err := hex.Decode(dst, src)
	if err != nil {
		sp.arena = sp.arena[:join]
		return nil, err
	}
	sp.arena = sp.arena[:len(sp.arena)+n]
	return dst[:n], nil
}

func (sp *StreamParser) hexFieldSlow(f []tokRef) ([]byte, error) {
	parts := make([]string, 0, len(f))
	for _, t := range f {
		parts = append(parts, sp.classicTok(t))
	}
	return hex.DecodeString(strings.ToLower(strings.Join(parts, "")))
}

// base64Field joins and decodes like
// base64.StdEncoding.DecodeString(strings.Join(f, "")), into the arena.
func (sp *StreamParser) base64Field(f []tokRef) ([]byte, error) {
	for _, t := range f {
		if t.quoted {
			return sp.base64FieldSlow(f)
		}
	}
	join := len(sp.arena)
	for _, t := range f {
		sp.arena = append(sp.arena, sp.tokBytes(t)...)
	}
	src := sp.arena[join:]
	dst := sp.arena[len(sp.arena) : len(sp.arena)+base64.StdEncoding.DecodedLen(len(src))]
	n, err := base64.StdEncoding.Decode(dst, src)
	if err != nil {
		sp.arena = sp.arena[:join]
		return nil, err
	}
	sp.arena = sp.arena[:len(sp.arena)+n]
	return dst[:n], nil
}

func (sp *StreamParser) base64FieldSlow(f []tokRef) ([]byte, error) {
	parts := make([]string, 0, len(f))
	for _, t := range f {
		parts = append(parts, sp.classicTok(t))
	}
	return base64.StdEncoding.DecodeString(strings.Join(parts, ""))
}
