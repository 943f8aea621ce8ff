package zone

import (
	"bytes"
	"strings"
	"testing"
)

const fuzzSeedZone = `$ORIGIN example.com.
$TTL 3600
@ 3600 IN SOA ns1.example.com. admin.example.com. 1 7200 3600 1209600 300
@ 86400 IN NS ns1.example.com.
@ 86400 IN NS ns2.example.com.
ns1 3600 IN A 192.0.2.1
ns2 3600 IN AAAA 2001:db8::2
www 300 IN CNAME host.example.com.
host 300 IN A 192.0.2.10
@ 3600 IN MX 10 mail.example.com.
@ 3600 IN TXT "v=spf1 -all" "second string"
_sip._tcp 3600 IN SRV 10 60 5060 host.example.com.
`

// TestRejectNonRoundTrippableNames pins the fix for a fuzzer-found
// round-trip break (corpus seed 7f269750db46de60): a quoted token let a
// space into the $ORIGIN name, which WriteTo then emitted unquoted, so
// the written zone re-tokenized differently. Names carrying master-file
// metacharacters must be rejected at parse time.
func TestRejectNonRoundTrippableNames(t *testing.T) {
	bad := []string{
		"$ORIGIN \"a b\"\n@ 300 IN A 192.0.2.1\n",
		"\"a b.example.com.\" 300 IN A 192.0.2.1\n",
		"www 300 IN CNAME \"a;b.example.com.\"\n",
	}
	for _, text := range bad {
		if _, err := Parse(strings.NewReader(text), "example.com."); err == nil {
			t.Errorf("parser accepted non-round-trippable name in %q", text)
		}
	}
	good := "$ORIGIN example.com.\nwww 300 IN A 192.0.2.1\n"
	if _, err := Parse(strings.NewReader(good), ""); err != nil {
		t.Errorf("plain zone rejected: %v", err)
	}
}

// FuzzZoneParseDifferential holds Parse's loader to the reference
// parser, the executable specification: every input must be accepted
// or rejected identically, rejections must carry the identical error
// text, and accepted inputs must produce byte-identical zones; the
// chunked loader is held to one sequential pass the same way. This is
// the gate that lets the hand-rolled byte tokenizer replace
// bufio.Scanner + strings.Fields on the ingestion hot path.
//
// The fuzz targets call ParseString, Parse without its io.ReadAll:
// under -fuzz the standard library is instrumented too, so each growth
// step of ReadAll's buffer would count as new coverage, and the fuzzer
// would spend its time minimizing inputs that only cross one.
func FuzzZoneParseDifferential(f *testing.F) {
	f.Add(fuzzSeedZone)
	f.Add("$ORIGIN e.\n@ IN SOA a.e. b.e. ( 1 2\n 3 4 5 ) ; comment\n")
	f.Add("$TTL 1h30m\nwww IN A 192.0.2.1\n IN TXT \"a;b(\\\"c\\\")\"\n")
	f.Add("www 300 IN TYPE5x target.\n")
	f.Add("x CLASS1 TYPE1 192.0.2.1\r\ny IN AAAA 1:2:3:4:5:6:7::\r\n")
	f.Add("a 1 IN TXT \"unterminated\nb 1 IN A 192.0.2.1\n")
	f.Add("(\n)\nwww 18446744073709551616 IN A 192.0.2.1")
	f.Add("w 1 IN TYPE6500 \\# 4 0A00 0001\n")
	f.Fuzz(func(t *testing.T, text string) {
		if len(text) >= 1024*1024-64 {
			// The reference caps lines at 1 MiB (a pinned bug the
			// streaming parser intentionally fixes, see
			// TestHugeRecordNoLineLimit); keep the comparison inside
			// the shared domain.
			return
		}
		zs, es := ParseString(text, "fuzz.test.")
		zr, er := parseReference(strings.NewReader(text), "fuzz.test.")
		if (es == nil) != (er == nil) {
			t.Fatalf("accept/reject mismatch: streaming=%v reference=%v", es, er)
		}
		if es != nil {
			if es.Error() != er.Error() {
				t.Fatalf("error text mismatch:\nstreaming: %q\nreference: %q", es.Error(), er.Error())
			}
		} else {
			var bs, br bytes.Buffer
			if _, err := zs.WriteTo(&bs); err != nil {
				t.Fatalf("streaming WriteTo: %v", err)
			}
			if _, err := zr.WriteTo(&br); err != nil {
				t.Fatalf("reference WriteTo: %v", err)
			}
			if !bytes.Equal(bs.Bytes(), br.Bytes()) {
				t.Fatalf("zone mismatch:\nstreaming:\n%s\nreference:\n%s", bs.String(), br.String())
			}
		}
		// The parallel parser must agree with one sequential pass too,
		// under a chunk size small enough that fuzz-sized inputs
		// actually split.
		zq, eq := parseSequential(text, "fuzz.test.")
		zp, ep := parseParallel([]byte(text), "fuzz.test.", 4, 32)
		if (eq == nil) != (ep == nil) {
			t.Fatalf("parallel accept/reject mismatch: sequential=%v parallel=%v", eq, ep)
		}
		if eq != nil {
			if eq.Error() != ep.Error() {
				t.Fatalf("parallel error mismatch:\nsequential: %q\nparallel: %q", eq.Error(), ep.Error())
			}
		} else {
			var bs, bp bytes.Buffer
			zq.WriteTo(&bs) // bytes.Buffer cannot fail
			zp.WriteTo(&bp) // bytes.Buffer cannot fail
			if !bytes.Equal(bs.Bytes(), bp.Bytes()) {
				t.Fatalf("parallel zone mismatch:\nsequential:\n%s\nparallel:\n%s", bs.String(), bp.String())
			}
		}
	})
}

// FuzzZoneParse feeds arbitrary master-file text to the parser: no
// input may panic, and any zone it accepts must write back out and
// reparse to the same record count.
func FuzzZoneParse(f *testing.F) {
	f.Add(fuzzSeedZone)
	// Parenthesized continuation + comments.
	f.Add("$ORIGIN e.\n@ IN SOA a.e. b.e. ( 1 2\n 3 4 5 ) ; comment\n")
	// Malformed: unbalanced parens, junk type, out-of-range TTL.
	f.Add("$ORIGIN e.\n@ IN SOA a.e. b.e. ( 1 2 3 4 5\n")
	f.Add("@ 3600 IN BOGUS data\n")
	f.Add("www 99999999999999999999 IN A 1.2.3.4\n")
	f.Fuzz(func(t *testing.T, text string) {
		z, err := ParseString(text, "fuzz.test.")
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if _, err := z.WriteTo(&buf); err != nil {
			t.Fatalf("accepted zone does not write: %v", err)
		}
		z2, err := ParseString(buf.String(), "")
		if err != nil {
			t.Fatalf("written zone does not reparse: %v\nzone:\n%s", err, buf.String())
		}
		if got, want := z2.RecordCount(), z.RecordCount(); got != want {
			t.Fatalf("reparse changed record count: %d != %d\nzone:\n%s", got, want, buf.String())
		}
	})
}
