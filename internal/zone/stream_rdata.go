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

// Byte-level scalar parsers for the streaming tokenizer. Each one
// replicates exactly what the reference parser's stdlib call accepts
// (including its quirks — fmt.Sscanf's tolerated trailing garbage,
// parseTTL's uint64 wraparound, netip's leading-zero rules); anything a
// fast path cannot decide identically falls back to the very stdlib
// call the reference makes, so accept/reject behavior cannot diverge.
// TestScalarParserEquivalence drives each pair over large random corpora.

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

// uintFromTok replicates strconv.ParseUint(s, 10, bits): at least one
// digit, digits only (no sign, no underscores at base 10), value within
// bits. Callers that need the exact strconv error on failure re-run the
// stdlib call on the reference-form token.
func uintFromTok(b []byte, quoted bool, bits int) (uint64, bool) {
	if quoted || len(b) == 0 {
		return 0, false
	}
	max := uint64(1)<<bits - 1
	v := uint64(0)
	for _, c := range b {
		if c < '0' || c > '9' {
			return 0, false
		}
		if v > max/10 {
			return 0, false
		}
		v = v*10 + uint64(c-'0')
		if v > max {
			return 0, false
		}
	}
	return v, true
}

// parseAddrTok is a []byte port of netip.ParseAddr (the dispatch on the
// first '.'/':'/'%' byte, parseIPv4Fields, and parseIPv6), returning
// ok=false wherever netip errors. Zoned IPv6 addresses allocate for the
// zone string; everything else is allocation-free.
func parseAddrTok(b []byte) (netip.Addr, bool) {
	for i := 0; i < len(b); i++ {
		switch b[i] {
		case '.':
			var f [4]byte
			if !parseV4Fields(b, f[:]) {
				return netip.Addr{}, false
			}
			return netip.AddrFrom4(f), true
		case ':':
			return parseV6(b)
		case '%':
			return netip.Addr{}, false // "missing IPv6 address"
		}
	}
	return netip.Addr{}, false // "unable to parse IP"
}

// parseV4Fields mirrors netip's parseIPv4Fields: four dot-separated
// octets, each 0-255, no leading zeros, at least one digit per field.
func parseV4Fields(s []byte, fields []byte) bool {
	val, pos, digLen := 0, 0, 0
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c >= '0' && c <= '9':
			if digLen == 1 && val == 0 {
				return false // leading zero
			}
			val = val*10 + int(c-'0')
			digLen++
			if val > 255 {
				return false
			}
		case c == '.':
			if i == 0 || i == len(s)-1 || s[i-1] == '.' {
				return false // empty field
			}
			if pos == 3 {
				return false // too long
			}
			fields[pos] = byte(val)
			pos++
			val, digLen = 0, 0
		default:
			return false
		}
	}
	if pos < 3 {
		return false // too short
	}
	fields[3] = byte(val)
	return true
}

// parseV6 mirrors netip's parseIPv6 over bytes, including the embedded
// IPv4 tail, '::' expansion, and scoped-zone handling.
func parseV6(in []byte) (netip.Addr, bool) {
	s := in
	var zone []byte
	hasZone := false
	for i, c := range s {
		if c == '%' {
			s, zone = s[:i], s[i+1:]
			hasZone = true
			break
		}
	}
	if hasZone && len(zone) == 0 {
		return netip.Addr{}, false
	}

	var ip [16]byte
	ellipsis := -1
	if len(s) >= 2 && s[0] == ':' && s[1] == ':' {
		ellipsis = 0
		s = s[2:]
		if len(s) == 0 {
			return withZone(netip.AddrFrom16(ip), zone, hasZone), true
		}
	}

	i := 0
	for i < 16 {
		off := 0
		acc := uint32(0)
		for ; off < len(s); off++ {
			c := s[off]
			switch {
			case c >= '0' && c <= '9':
				acc = (acc << 4) + uint32(c-'0')
			case c >= 'a' && c <= 'f':
				acc = (acc << 4) + uint32(c-'a'+10)
			case c >= 'A' && c <= 'F':
				acc = (acc << 4) + uint32(c-'A'+10)
			default:
				goto groupDone
			}
			if off > 3 || acc > 0xFFFF {
				return netip.Addr{}, false
			}
		}
	groupDone:
		if off == 0 {
			return netip.Addr{}, false // field needs at least one digit
		}
		if off < len(s) && s[off] == '.' {
			// Embedded IPv4 must fill the final 4 bytes.
			if ellipsis < 0 && i != 12 {
				return netip.Addr{}, false
			}
			if i+4 > 16 {
				return netip.Addr{}, false
			}
			if !parseV4Fields(s, ip[i:i+4]) {
				return netip.Addr{}, false
			}
			s = nil
			i += 4
			break
		}
		ip[i] = byte(acc >> 8)
		ip[i+1] = byte(acc)
		i += 2
		s = s[off:]
		if len(s) == 0 {
			break
		}
		if s[0] != ':' || len(s) == 1 {
			return netip.Addr{}, false
		}
		s = s[1:]
		if s[0] == ':' {
			if ellipsis >= 0 {
				return netip.Addr{}, false // multiple ::
			}
			ellipsis = i
			s = s[1:]
			if len(s) == 0 {
				break
			}
		}
	}
	if len(s) != 0 {
		return netip.Addr{}, false // trailing garbage
	}
	if i < 16 {
		if ellipsis < 0 {
			return netip.Addr{}, false // too short
		}
		n := 16 - i
		for j := i - 1; j >= ellipsis; j-- {
			ip[j+n] = ip[j]
		}
		for j := ellipsis; j < ellipsis+n; j++ {
			ip[j] = 0
		}
	} else if ellipsis >= 0 {
		return netip.Addr{}, false // :: must expand to ≥1 zero group
	}
	return withZone(netip.AddrFrom16(ip), zone, hasZone), true
}

func withZone(a netip.Addr, zone []byte, hasZone bool) netip.Addr {
	if !hasZone {
		return a
	}
	return a.WithZone(string(zone))
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
	// number parses a bounded integer field, reproducing the exact
	// strconv error on failure.
	number := func(t tokRef, bits int) (uint64, error) {
		if v, ok := uintFromTok(sp.tokBytes(t), t.quoted, bits); ok {
			return v, nil
		}
		_, err := strconv.ParseUint(sp.classicTok(t), 10, bits)
		return 0, err
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
