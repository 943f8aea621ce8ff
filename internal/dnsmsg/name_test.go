package dnsmsg

import (
	"cmp"
	"fmt"
	"strings"
	"testing"
	"testing/quick"
)

func TestParseName(t *testing.T) {
	cases := []struct {
		in      string
		want    Name
		wantErr bool
	}{
		{"example.com", "example.com.", false},
		{"example.com.", "example.com.", false},
		{"EXAMPLE.COM.", "example.com.", false},
		{".", ".", false},
		{"www.Example.Org", "www.example.org.", false},
		{"", "", true},
		{"a..b.", "", true},
		{strings.Repeat("a", 64) + ".com", "", true},
		{strings.Repeat("a.", 128) + "com", "", true},
		{strings.Repeat("ab.", 84) + "com", "", true}, // 255-octet limit
	}
	for _, c := range cases {
		got, err := ParseName(c.in)
		if (err != nil) != c.wantErr {
			t.Errorf("ParseName(%q) err=%v wantErr=%v", c.in, err, c.wantErr)
			continue
		}
		if err == nil && got != c.want {
			t.Errorf("ParseName(%q)=%q want %q", c.in, got, c.want)
		}
	}
}

func TestNameStructure(t *testing.T) {
	n := MustParseName("www.example.com")
	if got := n.LabelCount(); got != 3 {
		t.Errorf("LabelCount=%d want 3", got)
	}
	if got := n.Parent(); got != "example.com." {
		t.Errorf("Parent=%q", got)
	}
	if got := Root.Parent(); got != Root {
		t.Errorf("root parent=%q", got)
	}
	if !n.IsSubdomainOf("example.com.") || !n.IsSubdomainOf(Root) || !n.IsSubdomainOf(n) {
		t.Error("IsSubdomainOf failed for true cases")
	}
	if n.IsSubdomainOf("ample.com.") {
		t.Error("www.example.com should not be under ample.com (label boundary)")
	}
	if n.IsSubdomainOf("org.") {
		t.Error("wrong suffix accepted")
	}
	ls := labels(n)
	if len(ls) != 3 || ls[0] != "www" || ls[2] != "com" {
		t.Errorf("labels=%v", ls)
	}
	if got := labels(Root); got != nil {
		t.Errorf("root labels=%v", got)
	}
}

func TestNameChild(t *testing.T) {
	cases := []struct {
		n, zone string
		want    string
		ok      bool
	}{
		{"a.b.example.com.", "example.com.", "b.example.com.", true},
		{"b.example.com.", "example.com.", "b.example.com.", true},
		{"example.com.", "example.com.", "", false},
		{"example.com.", ".", "com.", true},
		{"www.example.com.", ".", "com.", true},
		{"example.org.", "example.com.", "", false},
	}
	for _, c := range cases {
		got, ok := Name(c.n).Child(Name(c.zone))
		if ok != c.ok || (ok && got != Name(c.want)) {
			t.Errorf("Child(%q under %q)=(%q,%v) want (%q,%v)", c.n, c.zone, got, ok, c.want, c.ok)
		}
	}
}

func TestNameRoundTripWire(t *testing.T) {
	names := []Name{
		Root,
		"com.",
		"example.com.",
		"a.very.deep.chain.of.labels.example.org.",
		MustParseName(strings.Repeat("a", 63) + ".com"),
	}
	for _, n := range names {
		buf, err := appendName(nil, n, nil)
		if err != nil {
			t.Fatalf("appendName(%q): %v", n, err)
		}
		got, off, err := unpackName(buf, 0)
		if err != nil {
			t.Fatalf("unpackName(%q): %v", n, err)
		}
		if got != n {
			t.Errorf("round trip %q -> %q", n, got)
		}
		if off != len(buf) {
			t.Errorf("offset %d want %d", off, len(buf))
		}
		if n.WireLen() != len(buf) {
			t.Errorf("WireLen(%q)=%d want %d", n, n.WireLen(), len(buf))
		}
	}
}

func TestNameCompression(t *testing.T) {
	cmap := make(map[Name]int)
	buf, err := appendName(nil, "www.example.com.", cmap)
	if err != nil {
		t.Fatal(err)
	}
	first := len(buf)
	// Second occurrence of a shared suffix must compress to a pointer.
	buf, err = appendName(buf, "mail.example.com.", cmap)
	if err != nil {
		t.Fatal(err)
	}
	if len(buf)-first != 1+4+2 { // "mail" label + 2-byte pointer
		t.Errorf("compression not applied: second name used %d bytes", len(buf)-first)
	}
	n1, _, err := unpackName(buf, 0)
	if err != nil || n1 != "www.example.com." {
		t.Fatalf("first name: %q, %v", n1, err)
	}
	n2, end, err := unpackName(buf, first)
	if err != nil || n2 != "mail.example.com." {
		t.Fatalf("second name: %q, %v", n2, err)
	}
	if end != len(buf) {
		t.Errorf("end=%d want %d", end, len(buf))
	}
}

func TestUnpackNamePointerLoop(t *testing.T) {
	// Pointer to itself must not hang: forward/self pointers rejected.
	msg := []byte{0xC0, 0x00}
	if _, _, err := unpackName(msg, 0); err == nil {
		t.Fatal("self-pointer accepted")
	}
	// Two pointers pointing at each other.
	msg = []byte{0xC0, 0x02, 0xC0, 0x00}
	if _, _, err := unpackName(msg, 2); err == nil {
		t.Fatal("pointer loop accepted")
	}
	// Truncated label.
	msg = []byte{5, 'a', 'b'}
	if _, _, err := unpackName(msg, 0); err == nil {
		t.Fatal("truncated label accepted")
	}
	// Obsolete label type.
	msg = []byte{0x40, 0x00}
	if _, _, err := unpackName(msg, 0); err == nil {
		t.Fatal("obsolete label type accepted")
	}
}

func TestCanonicalCompare(t *testing.T) {
	// RFC 4034 §6.1 example ordering.
	ordered := []Name{
		".",
		"example.com.",
		"a.example.com.",
		"yljkjljk.a.example.com.",
		"z.a.example.com.",
		"zabc.a.example.com.",
		"z.example.com.",
	}
	for i := 0; i+1 < len(ordered); i++ {
		if c := CanonicalCompare(ordered[i], ordered[i+1]); c != -1 {
			t.Errorf("CanonicalCompare(%q, %q) = %d, want -1", ordered[i], ordered[i+1], c)
		}
		if c := CanonicalCompare(ordered[i+1], ordered[i]); c != 1 {
			t.Errorf("CanonicalCompare(%q, %q) = %d, want 1", ordered[i+1], ordered[i], c)
		}
	}
	if c := CanonicalCompare("example.com.", "example.com."); c != 0 {
		t.Errorf("a name compares %d to itself", c)
	}
}

// labels splits a name into labels, excluding the empty root label:
// labels(".") is nil, labels("a.b.") is ["a","b"]. It is the oracle
// FuzzCanonicalCompare holds CanonicalCompare to.
func labels(n Name) []string {
	if n.IsRoot() || n == "" {
		return nil
	}
	return strings.Split(strings.TrimSuffix(string(n), "."), ".")
}

// canonicalCompareRef is RFC 4034 §6.1 order over split labels, the
// way CanonicalCompare's predecessor computed it.
func canonicalCompareRef(a, b Name) int {
	al, bl := labels(a), labels(b)
	for i := 1; i <= len(al) && i <= len(bl); i++ {
		if c := strings.Compare(al[len(al)-i], bl[len(bl)-i]); c != 0 {
			return c
		}
	}
	return cmp.Compare(len(al), len(bl))
}

// FuzzCanonicalCompare holds CanonicalCompare to the split-label
// reference on every pair of names ParseName accepts: the two agree in
// sign, swapping the arguments negates the result, and the result is 0
// only for equal names.
func FuzzCanonicalCompare(f *testing.F) {
	f.Add("example.com.", "a.example.com.")
	f.Add("z.a.example.com", "zabc.a.example.com")
	f.Add(".", "com.")
	f.Add("a.b.c.", "b.c.")
	f.Add("ab.com.", "b.com.")
	f.Add("b.b.com.", "b.com.")
	f.Add("A.Example.", "a.example.")
	f.Add("\\.a.", "-.a.")
	f.Add("\xff\x00.x.", "\x7f.x.")
	f.Fuzz(func(t *testing.T, s1, s2 string) {
		a, err := ParseName(s1)
		if err != nil {
			return
		}
		b, err := ParseName(s2)
		if err != nil {
			return
		}
		got := CanonicalCompare(a, b)
		if want := canonicalCompareRef(a, b); got != want {
			t.Fatalf("CanonicalCompare(%q, %q) = %d, reference %d", a, b, got, want)
		}
		if back := CanonicalCompare(b, a); back != -got {
			t.Fatalf("CanonicalCompare(%q, %q) = %d but swapped %d", a, b, got, back)
		}
		if (got == 0) != (a == b) {
			t.Fatalf("CanonicalCompare(%q, %q) = %d", a, b, got)
		}
	})
}

// canonicalCompareOp compares each adjacent pair of a canonically
// ordered name list, the comparisons a zone sort makes.
func canonicalCompareOp(testing.TB) func() error {
	names := []Name{".", "com.", "example.com.", "a.example.com.", "www.a.example.com.",
		"zabc.a.example.com.", "ns1.example.net.", "b.root-servers.net.", "xn--p1ai."}
	return func() error {
		for i := 0; i+1 < len(names); i++ {
			if CanonicalCompare(names[i], names[i+1]) >= 0 {
				return fmt.Errorf("%q does not sort before %q", names[i], names[i+1])
			}
		}
		return nil
	}
}

func BenchmarkCanonicalCompare(b *testing.B) { benchOp(b, canonicalCompareOp(b)) }

// TestNameRoundTripProperty: any name that ParseName accepts must survive
// wire encode/decode unchanged.
func TestNameRoundTripProperty(t *testing.T) {
	f := func(rawLabels []string) bool {
		// Build a candidate name from arbitrary label material.
		var parts []string
		for _, l := range rawLabels {
			clean := strings.Map(func(r rune) rune {
				if r >= 'a' && r <= 'z' || r >= '0' && r <= '9' || r == '-' {
					return r
				}
				return -1
			}, strings.ToLower(l))
			if clean == "" || len(clean) > 63 {
				continue
			}
			parts = append(parts, clean)
			if len(parts) == 6 {
				break
			}
		}
		if len(parts) == 0 {
			return true
		}
		n, err := ParseName(strings.Join(parts, "."))
		if err != nil {
			return true // oversized total: not this property's concern
		}
		buf, err := appendName(nil, n, nil)
		if err != nil {
			return false
		}
		got, _, err := unpackName(buf, 0)
		return err == nil && got == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}
