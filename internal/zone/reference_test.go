package zone

import (
	"bufio"
	"encoding/base64"
	"encoding/hex"
	"fmt"
	"io"
	"net/netip"
	"strconv"
	"strings"

	"ldplayer/internal/dnsmsg"
)

// parseReference is the original bufio.Scanner parser, kept verbatim
// (test-only since the streaming parser replaced it) as the executable
// specification for the streaming tokenizer:
// FuzzZoneParseDifferential proves Parse accepts/rejects identically
// and produces byte-identical zones. Its 1 MiB line cap (a real bug for
// huge TXT/DNSKEY records, pinned by TestHugeRecordNoLineLimit) is part
// of what the rewrite fixes, so it is deliberately left in place here.
func parseReference(r io.Reader, origin dnsmsg.Name) (*Zone, error) {
	p := &parser{origin: origin, defTTL: 3600}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	lineno := 0
	var pending []string
	depth := 0
	startLine := 0
	for sc.Scan() {
		lineno++
		toks, opens, closes := tokenize(sc.Text())
		if len(toks) == 0 && depth == 0 {
			continue
		}
		if depth == 0 {
			startLine = lineno
		} else if len(toks) > 0 && toks[0] == "" {
			// Continuation lines may start with whitespace; the blank-owner
			// marker only applies to the first line of a record.
			toks = toks[1:]
		}
		pending = append(pending, toks...)
		depth += opens - closes
		if depth < 0 {
			return nil, fmt.Errorf("zone parse line %d: unbalanced ')'", lineno)
		}
		if depth > 0 {
			continue // record continues on the next line
		}
		if err := p.record(pending); err != nil {
			return nil, fmt.Errorf("zone parse line %d: %w", startLine, err)
		}
		pending = nil
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if depth != 0 {
		return nil, fmt.Errorf("zone parse: unclosed '(' at EOF")
	}
	if p.zone == nil {
		if p.origin == "" {
			return nil, fmt.Errorf("zone parse: empty input and no origin")
		}
		p.zone = New(p.origin)
	}
	return p.zone, nil
}

// tokenize splits one master-file line into tokens, stripping comments,
// honoring double quotes, and counting parentheses (which are returned,
// not included as tokens). A leading unquoted whitespace yields the
// special token "" meaning "same owner as previous record".
func tokenize(line string) (toks []string, opens, closes int) {
	i := 0
	leadingBlank := len(line) > 0 && (line[0] == ' ' || line[0] == '\t')
	first := true
	for i < len(line) {
		c := line[i]
		switch {
		case c == ';':
			return finishTokens(toks, leadingBlank, first), opens, closes
		case c == ' ' || c == '\t':
			i++
		case c == '(':
			opens++
			i++
		case c == ')':
			closes++
			i++
		case c == '"':
			j := i + 1
			var sb strings.Builder
			for j < len(line) && line[j] != '"' {
				if line[j] == '\\' && j+1 < len(line) {
					j++
				}
				sb.WriteByte(line[j])
				j++
			}
			toks = append(toks, "\x00"+sb.String()) // \x00 marks "quoted"
			first = false
			i = j + 1
		default:
			j := i
			for j < len(line) && !strings.ContainsRune(" \t;()\"", rune(line[j])) {
				j++
			}
			toks = append(toks, line[i:j])
			first = false
			i = j
		}
	}
	return finishTokens(toks, leadingBlank, first), opens, closes
}

func finishTokens(toks []string, leadingBlank, empty bool) []string {
	if leadingBlank && !empty && len(toks) > 0 {
		return append([]string{""}, toks...)
	}
	return toks
}

type parser struct {
	origin    dnsmsg.Name
	defTTL    uint32
	lastOwner dnsmsg.Name
	zone      *Zone
}

// masterFileSafe reports whether a name token can be written back to a
// zone file as a bare token. Whitespace, quotes, comment and grouping
// characters would re-tokenize differently on reparse (a quoted token
// can smuggle them in), so names carrying them are rejected.
func masterFileSafe(tok string) bool {
	for i := 0; i < len(tok); i++ {
		switch c := tok[i]; {
		case c == ' ' || c == '\t' || c == '"' || c == ';' || c == '(' || c == ')':
			return false
		case c < 0x20 || c == 0x7f:
			return false
		}
	}
	return true
}

func (p *parser) name(tok string) (dnsmsg.Name, error) {
	if !masterFileSafe(tok) {
		return "", fmt.Errorf("name %q contains characters that cannot round-trip a master file", tok)
	}
	if tok == "@" {
		if p.origin == "" {
			return "", fmt.Errorf("@ with no origin")
		}
		return p.origin, nil
	}
	if strings.HasSuffix(tok, ".") {
		return dnsmsg.ParseName(tok)
	}
	if p.origin == "" {
		return "", fmt.Errorf("relative name %q with no origin", tok)
	}
	if p.origin.IsRoot() {
		return dnsmsg.ParseName(tok + ".")
	}
	return dnsmsg.ParseName(tok + "." + string(p.origin))
}

func (p *parser) record(toks []string) error {
	switch toks[0] {
	case "$ORIGIN":
		if len(toks) < 2 {
			return fmt.Errorf("$ORIGIN needs a name")
		}
		if !masterFileSafe(toks[1]) {
			return fmt.Errorf("origin %q contains characters that cannot round-trip a master file", toks[1])
		}
		n, err := dnsmsg.ParseName(toks[1])
		if err != nil {
			return err
		}
		p.origin = n
		if p.zone == nil {
			p.zone = New(n)
		}
		return nil
	case "$TTL":
		if len(toks) < 2 {
			return fmt.Errorf("$TTL needs a value")
		}
		ttl, err := parseTTL(toks[1])
		if err != nil {
			return err
		}
		p.defTTL = ttl
		return nil
	case "$INCLUDE":
		return fmt.Errorf("$INCLUDE is not supported")
	}

	// Owner field: empty token means repeat previous owner.
	var owner dnsmsg.Name
	var err error
	if toks[0] == "" {
		if p.lastOwner == "" {
			return fmt.Errorf("record with blank owner before any owner")
		}
		owner = p.lastOwner
	} else if owner, err = p.name(toks[0]); err != nil {
		return err
	}
	toks = toks[1:]
	p.lastOwner = owner

	// Optional TTL and class in either order.
	ttl := p.defTTL
	class := dnsmsg.ClassINET
	for len(toks) > 0 {
		if t, err := parseTTL(toks[0]); err == nil {
			ttl = t
			toks = toks[1:]
			continue
		}
		if c, err := dnsmsg.ClassFromString(toks[0]); err == nil {
			class = c
			toks = toks[1:]
			continue
		}
		break
	}
	if len(toks) == 0 {
		return fmt.Errorf("record for %s missing type", owner)
	}
	typ, err := dnsmsg.TypeFromString(toks[0])
	if err != nil {
		return err
	}
	data, err := p.rdata(typ, toks[1:])
	if err != nil {
		return fmt.Errorf("%s %s: %w", owner, typ, err)
	}

	if p.zone == nil {
		if p.origin == "" {
			return fmt.Errorf("record before any origin")
		}
		p.zone = New(p.origin)
	}
	return p.zone.Add(dnsmsg.RR{Name: owner, Type: typ, Class: class, TTL: ttl, Data: data})
}

func unquote(tok string) string { return strings.TrimPrefix(tok, "\x00") }

func (p *parser) rdata(typ dnsmsg.Type, f []string) (dnsmsg.RData, error) {
	need := func(n int) error {
		if len(f) < n {
			return fmt.Errorf("want %d rdata fields, have %d", n, len(f))
		}
		return nil
	}
	switch typ {
	case dnsmsg.TypeA:
		if err := need(1); err != nil {
			return nil, err
		}
		a, err := netip.ParseAddr(f[0])
		if err != nil || !a.Is4() {
			return nil, fmt.Errorf("bad IPv4 %q", f[0])
		}
		return dnsmsg.A{Addr: a}, nil
	case dnsmsg.TypeAAAA:
		if err := need(1); err != nil {
			return nil, err
		}
		a, err := netip.ParseAddr(f[0])
		if err != nil || !a.Is6() {
			return nil, fmt.Errorf("bad IPv6 %q", f[0])
		}
		return dnsmsg.AAAA{Addr: a}, nil
	case dnsmsg.TypeNS:
		if err := need(1); err != nil {
			return nil, err
		}
		n, err := p.name(f[0])
		return dnsmsg.NS{Host: n}, err
	case dnsmsg.TypeCNAME:
		if err := need(1); err != nil {
			return nil, err
		}
		n, err := p.name(f[0])
		return dnsmsg.CNAME{Target: n}, err
	case dnsmsg.TypePTR:
		if err := need(1); err != nil {
			return nil, err
		}
		n, err := p.name(f[0])
		return dnsmsg.PTR{Target: n}, err
	case dnsmsg.TypeMX:
		if err := need(2); err != nil {
			return nil, err
		}
		pref, err := strconv.ParseUint(f[0], 10, 16)
		if err != nil {
			return nil, err
		}
		n, err := p.name(f[1])
		return dnsmsg.MX{Preference: uint16(pref), Host: n}, err
	case dnsmsg.TypeTXT:
		if err := need(1); err != nil {
			return nil, err
		}
		var ss []string
		for _, t := range f {
			ss = append(ss, unquote(t))
		}
		return dnsmsg.TXT{Strings: ss}, nil
	case dnsmsg.TypeSOA:
		if err := need(7); err != nil {
			return nil, err
		}
		mname, err := p.name(f[0])
		if err != nil {
			return nil, err
		}
		rname, err := p.name(f[1])
		if err != nil {
			return nil, err
		}
		var vals [5]uint32
		for i := 0; i < 5; i++ {
			v, err := parseTTL(f[2+i])
			if err != nil {
				return nil, err
			}
			vals[i] = v
		}
		return dnsmsg.SOA{MName: mname, RName: rname, Serial: vals[0],
			Refresh: vals[1], Retry: vals[2], Expire: vals[3], Minimum: vals[4]}, nil
	case dnsmsg.TypeSRV:
		if err := need(4); err != nil {
			return nil, err
		}
		var vals [3]uint16
		for i := 0; i < 3; i++ {
			v, err := strconv.ParseUint(f[i], 10, 16)
			if err != nil {
				return nil, err
			}
			vals[i] = uint16(v)
		}
		n, err := p.name(f[3])
		return dnsmsg.SRV{Priority: vals[0], Weight: vals[1], Port: vals[2], Target: n}, err
	case dnsmsg.TypeDS:
		if err := need(4); err != nil {
			return nil, err
		}
		tag, err := strconv.ParseUint(f[0], 10, 16)
		if err != nil {
			return nil, err
		}
		alg, err := strconv.ParseUint(f[1], 10, 8)
		if err != nil {
			return nil, err
		}
		dt, err := strconv.ParseUint(f[2], 10, 8)
		if err != nil {
			return nil, err
		}
		dig, err := hex.DecodeString(strings.ToLower(strings.Join(f[3:], "")))
		if err != nil {
			return nil, err
		}
		return dnsmsg.DS{KeyTag: uint16(tag), Algorithm: uint8(alg), DigestType: uint8(dt), Digest: dig}, nil
	case dnsmsg.TypeDNSKEY:
		if err := need(4); err != nil {
			return nil, err
		}
		flags, err := strconv.ParseUint(f[0], 10, 16)
		if err != nil {
			return nil, err
		}
		proto, err := strconv.ParseUint(f[1], 10, 8)
		if err != nil {
			return nil, err
		}
		alg, err := strconv.ParseUint(f[2], 10, 8)
		if err != nil {
			return nil, err
		}
		key, err := base64.StdEncoding.DecodeString(strings.Join(f[3:], ""))
		if err != nil {
			return nil, err
		}
		return dnsmsg.DNSKEY{Flags: uint16(flags), Protocol: uint8(proto), Algorithm: uint8(alg), PublicKey: key}, nil
	case dnsmsg.TypeRRSIG:
		if err := need(9); err != nil {
			return nil, err
		}
		covered, err := dnsmsg.TypeFromString(f[0])
		if err != nil {
			return nil, err
		}
		alg, err := strconv.ParseUint(f[1], 10, 8)
		if err != nil {
			return nil, err
		}
		labels, err := strconv.ParseUint(f[2], 10, 8)
		if err != nil {
			return nil, err
		}
		ottl, err := strconv.ParseUint(f[3], 10, 32)
		if err != nil {
			return nil, err
		}
		exp, err := strconv.ParseUint(f[4], 10, 32)
		if err != nil {
			return nil, err
		}
		inc, err := strconv.ParseUint(f[5], 10, 32)
		if err != nil {
			return nil, err
		}
		tag, err := strconv.ParseUint(f[6], 10, 16)
		if err != nil {
			return nil, err
		}
		signer, err := p.name(f[7])
		if err != nil {
			return nil, err
		}
		sig, err := base64.StdEncoding.DecodeString(strings.Join(f[8:], ""))
		if err != nil {
			return nil, err
		}
		return dnsmsg.RRSIG{TypeCovered: covered, Algorithm: uint8(alg), Labels: uint8(labels),
			OrigTTL: uint32(ottl), Expiration: uint32(exp), Inception: uint32(inc),
			KeyTag: uint16(tag), SignerName: signer, Signature: sig}, nil
	case dnsmsg.TypeNSEC:
		if err := need(1); err != nil {
			return nil, err
		}
		next, err := p.name(f[0])
		if err != nil {
			return nil, err
		}
		var types []dnsmsg.Type
		for _, t := range f[1:] {
			tt, err := dnsmsg.TypeFromString(t)
			if err != nil {
				return nil, err
			}
			types = append(types, tt)
		}
		return dnsmsg.NSEC{NextName: next, Types: types}, nil
	default:
		// RFC 3597 generic form: \# length hex...
		if len(f) >= 2 && f[0] == "\\#" {
			n, err := strconv.Atoi(f[1])
			if err != nil {
				return nil, err
			}
			raw, err := hex.DecodeString(strings.ToLower(strings.Join(f[2:], "")))
			if err != nil {
				return nil, err
			}
			if len(raw) != n {
				return nil, fmt.Errorf("\\# length %d != %d data bytes", n, len(raw))
			}
			return dnsmsg.Raw{Data: raw}, nil
		}
		return nil, fmt.Errorf("unsupported rdata for %s", typ)
	}
}
