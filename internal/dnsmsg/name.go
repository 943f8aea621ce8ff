package dnsmsg

import (
	"bytes"
	"cmp"
	"errors"
	"strings"
)

// Name is a fully-qualified domain name in presentation form, stored
// lowercase with a trailing dot ("example.com."). The root is ".".
// Using a canonical string form makes names directly usable as map keys
// in the zone tree, the cache, and the split-horizon view table.
type Name string

// Root is the DNS root name.
const Root Name = "."

// Errors returned by name handling.
var (
	ErrNameTooLong  = errors.New("dnsmsg: name exceeds 255 octets")
	ErrLabelTooLong = errors.New("dnsmsg: label exceeds 63 octets")
	ErrBadName      = errors.New("dnsmsg: malformed domain name")
	errBadPointer   = errors.New("dnsmsg: bad compression pointer")
)

// ParseName canonicalizes a presentation-form name: lowercases it and
// ensures the trailing dot. It rejects empty and oversized names.
func ParseName(s string) (Name, error) {
	if err := CheckName(s); err != nil {
		return "", err
	}
	if !strings.HasSuffix(s, ".") {
		s += "."
	}
	return Name(asciiLower(s)), nil
}

// CheckName holds ParseName's rules for a presentation-form name, with
// or without its trailing dot, and returns ParseName's error: the name
// is not empty, no label is empty or longer than MaxLabelLen, and its
// wire form fits MaxNameLen. Case is not looked at. AppendQuery and the
// zone parsers apply the rules through it.
func CheckName[S string | []byte](s S) error {
	if len(s) == 0 {
		return ErrBadName
	}
	if len(s) == 1 && s[0] == '.' {
		return nil
	}
	total := 1 // trailing root byte
	start := 0
	for i := 0; i <= len(s); i++ {
		if i < len(s) && s[i] != '.' {
			continue
		}
		if i == len(s) && start == i {
			break // the trailing dot was given
		}
		l := i - start
		if l == 0 {
			return ErrBadName // empty label ("a..b")
		}
		if l > MaxLabelLen {
			return ErrLabelTooLong
		}
		total += l + 1
		start = i + 1
	}
	if total > MaxNameLen {
		return ErrNameTooLong
	}
	return nil
}

// asciiLower lowercases A-Z only, leaving every other byte intact. DNS
// case-insensitivity covers ASCII letters alone (RFC 4343), and labels
// may carry arbitrary non-UTF-8 bytes that Unicode case mapping would
// silently rewrite to U+FFFD.
func asciiLower(s string) string {
	i := 0
	for ; i < len(s); i++ {
		if s[i] >= 'A' && s[i] <= 'Z' {
			break
		}
	}
	if i == len(s) {
		return s
	}
	b := []byte(s)
	for ; i < len(b); i++ {
		if b[i] >= 'A' && b[i] <= 'Z' {
			b[i] += 'a' - 'A'
		}
	}
	return string(b)
}

// MustParseName is ParseName for constant inputs; it panics on error.
func MustParseName(s string) Name {
	n, err := ParseName(s)
	if err != nil {
		panic(err)
	}
	return n
}

// String returns the presentation form.
func (n Name) String() string { return string(n) }

// IsRoot reports whether n is the DNS root.
func (n Name) IsRoot() bool { return n == Root }

// LabelCount returns the number of labels (root = 0).
func (n Name) LabelCount() int {
	if n.IsRoot() || n == "" {
		return 0
	}
	return strings.Count(string(n), ".")
}

// Parent returns the name with the leftmost label removed; the parent of
// the root is the root.
func (n Name) Parent() Name {
	if n.IsRoot() || n == "" {
		return Root
	}
	i := strings.IndexByte(strings.TrimSuffix(string(n), "."), '.')
	if i < 0 {
		return Root
	}
	return n[i+1:]
}

// IsSubdomainOf reports whether n is equal to or below zone.
func (n Name) IsSubdomainOf(zone Name) bool {
	if zone.IsRoot() {
		return true
	}
	if n == zone {
		return true
	}
	return strings.HasSuffix(string(n), "."+string(zone))
}

// Child returns the label immediately below zone on the path from zone to
// n, as a full name. For n="a.b.example.com." under zone="example.com."
// it returns "b.example.com.". ok is false when n is not strictly below
// zone.
func (n Name) Child(zone Name) (child Name, ok bool) {
	if n == zone || !n.IsSubdomainOf(zone) {
		return "", false
	}
	rest := strings.TrimSuffix(string(n), string(zone))
	if zone.IsRoot() {
		rest = strings.TrimSuffix(string(n), ".")
		rest += "."
	}
	// rest now ends with "."; take its last label.
	rest = strings.TrimSuffix(rest, ".")
	if i := strings.LastIndexByte(rest, '.'); i >= 0 {
		rest = rest[i+1:]
	}
	if zone.IsRoot() {
		return Name(rest + "."), true
	}
	return Name(rest + "." + string(zone)), true
}

// WirelLen returns the encoded length of the name without compression.
func (n Name) WireLen() int {
	if n.IsRoot() {
		return 1
	}
	return len(n) + 1
}

// appendName encodes n at the end of buf. When cmap is non-nil it applies
// RFC 1035 message compression: each suffix already emitted at an offset
// < 0x4000 is replaced with a pointer, and new suffixes are recorded.
func appendName(buf []byte, n Name, cmap map[Name]int) ([]byte, error) {
	if n == "" {
		n = Root
	}
	rest := n
	for !rest.IsRoot() {
		if cmap != nil {
			if off, ok := cmap[rest]; ok {
				return append(buf, 0xC0|byte(off>>8), byte(off)), nil
			}
			if len(buf) < 0x4000 {
				cmap[rest] = len(buf)
			}
		}
		label := string(rest)
		if i := strings.IndexByte(label, '.'); i >= 0 {
			label = label[:i]
		}
		if len(label) > MaxLabelLen {
			return buf, ErrLabelTooLong
		}
		buf = append(buf, byte(len(label)))
		buf = append(buf, label...)
		rest = rest.Parent()
	}
	return append(buf, 0), nil
}

// unpackName decodes a possibly-compressed name starting at off in msg.
// It returns the canonical Name and the offset just past the name's
// in-place encoding (pointers are followed but do not advance off past
// the first pointer).
func unpackName(msg []byte, off int) (Name, int, error) {
	var sb strings.Builder
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
			if sb.Len() == 0 {
				return Root, end, nil
			}
			name := asciiLower(sb.String())
			if len(name)+1 > MaxNameLen {
				return "", 0, ErrNameTooLong
			}
			return Name(name), end, nil
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
			label := msg[off+1 : off+1+c]
			if bytes.IndexByte(label, '.') >= 0 {
				// A dot inside a label cannot round-trip the canonical
				// presentation form this codec keys everything on.
				return "", 0, ErrBadName
			}
			sb.Write(label)
			sb.WriteByte('.')
			off += 1 + c
		}
	}
}

// CanonicalCompare orders two names in DNSSEC canonical order
// (RFC 4034 §6.1): label by label from the rightmost, so a name sorts
// just before the names below it. It returns -1, 0 or +1, works on the
// names in place and allocates nothing.
//
// Labels compare as plain bytes, which is the RFC's order for a Name:
// a Name is lowercase by construction (ParseName and the wire decoder
// fold case), so the case folding has nothing left to do, and no label
// holds a dot (the wire decoder rejects one, and the master-file
// parsers split on every dot), so each '.' is a label boundary. A label
// sorts before its own extensions ("z" < "zabc"), as the RFC's absent
// octet does, and a name sorts before the longer names that share all
// its labels.
func CanonicalCompare(a, b Name) int {
	// Names in one zone share its origin, so first step back over the
	// longest common byte suffix. Both names end in the root's dot, so
	// the suffix holds one; the labels after its first dot are whole
	// and equal on both sides, and drop with the trailing dot.
	x, y := string(a), string(b)
	i, j := len(x), len(y)
	for i > 0 && j > 0 && x[i-1] == y[j-1] {
		i, j = i-1, j-1
	}
	if k := strings.IndexByte(x[i:], '.'); k >= 0 {
		x, y = x[:i+k], y[:j+k]
	}
	for x != "" && y != "" {
		i, j := strings.LastIndexByte(x, '.'), strings.LastIndexByte(y, '.')
		if c := strings.Compare(x[i+1:], y[j+1:]); c != 0 {
			return c
		}
		x, y = x[:max(i, 0)], y[:max(j, 0)]
	}
	return cmp.Compare(len(x), len(y))
}
