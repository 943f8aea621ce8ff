package zone

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"strings"
	"testing"
	"testing/iotest"

	"ldplayer/internal/dnsmsg"
)

// runBoth parses s with both the streaming parser (via Parse) and the
// reference parser, and returns the results for comparison.
func runBoth(t *testing.T, s string, origin dnsmsg.Name) (zs, zr *Zone, es, er error) {
	t.Helper()
	zs, es = Parse(strings.NewReader(s), origin)
	zr, er = parseReference(strings.NewReader(s), origin)
	return
}

// requireSame asserts the streaming and reference parsers agreed:
// identical accept/reject decision, identical error text, and (on
// accept) byte-identical master-file output.
func requireSame(t *testing.T, s string, origin dnsmsg.Name) {
	t.Helper()
	zs, zr, es, er := runBoth(t, s, origin)
	if (es == nil) != (er == nil) {
		t.Fatalf("accept/reject mismatch:\ninput: %q\nstreaming err: %v\nreference err: %v", s, es, er)
	}
	if es != nil {
		if es.Error() != er.Error() {
			t.Fatalf("error text mismatch:\ninput: %q\nstreaming: %q\nreference: %q", s, es.Error(), er.Error())
		}
		return
	}
	var bs, br bytes.Buffer
	if _, err := zs.WriteTo(&bs); err != nil {
		t.Fatalf("streaming WriteTo: %v", err)
	}
	if _, err := zr.WriteTo(&br); err != nil {
		t.Fatalf("reference WriteTo: %v", err)
	}
	if !bytes.Equal(bs.Bytes(), br.Bytes()) {
		t.Fatalf("zone content mismatch:\ninput: %q\nstreaming:\n%s\nreference:\n%s", s, bs.String(), br.String())
	}
}

// The table covers every tokenizer and decoder quirk the streaming
// parser replicates from the reference: these are the cases the
// differential fuzzer found interesting during development, pinned as
// regressions.
func TestStreamingMatchesReference(t *testing.T) {
	cases := []struct {
		name   string
		origin dnsmsg.Name
		in     string
	}{
		{"basic A", "example.com.", "www 300 IN A 192.0.2.1\n"},
		{"absolute owner", "", "www.example.com. 300 IN A 192.0.2.1\n"},
		{"at owner", "example.com.", "@ 300 IN A 192.0.2.1\n"},
		{"blank owner repeats", "example.com.", "www 300 IN A 192.0.2.1\n 300 IN AAAA 2001:db8::1\n"},
		{"blank owner tab", "example.com.", "www 300 IN A 192.0.2.1\n\t600 IN MX 10 mail\n"},
		{"blank owner before any owner", "example.com.", " 300 IN A 192.0.2.1\n"},
		{"no origin relative", "", "www 300 IN A 192.0.2.1\n"},
		{"origin directive", "", "$ORIGIN example.com.\nwww 300 IN A 192.0.2.1\n"},
		{"origin mid-file", "a.test.", "x 1 IN A 192.0.2.1\n$ORIGIN b.test.\nx 1 IN A 192.0.2.2\n"},
		{"origin relative arg rejected", "example.com.", "$ORIGIN sub\nx 1 IN A 192.0.2.1\n"},
		{"origin quoted arg", "", "$ORIGIN \"example.com.\"\n"},
		{"ttl directive", "example.com.", "$TTL 3600\nwww IN A 192.0.2.1\n"},
		{"ttl directive units", "example.com.", "$TTL 1h30m\nwww IN A 192.0.2.1\n"},
		{"ttl directive bad", "example.com.", "$TTL potato\nwww 1 IN A 192.0.2.1\n"},
		{"ttl directive quoted", "example.com.", "$TTL \"3600\"\nwww IN A 192.0.2.1\n"},
		{"ttl huge wraparound", "example.com.", "$TTL 18446744073709551616\nwww IN A 192.0.2.1\n"},
		{"include rejected", "example.com.", "$INCLUDE other.zone\n"},
		{"unknown directive", "example.com.", "$BOGUS foo\nwww 1 IN A 192.0.2.1\n"},
		{"record ttl units", "example.com.", "www 1w2d3h4m5s IN A 192.0.2.1\n"},
		{"ttl class swapped", "example.com.", "www IN 300 A 192.0.2.1\n"},
		{"no ttl no class", "example.com.", "www A 192.0.2.1\n"},
		{"class CH", "example.com.", "www 300 CH A 192.0.2.1\n"},
		{"CLASS numeric", "example.com.", "www 300 CLASS1 A 192.0.2.1\n"},
		{"TYPE numeric known", "example.com.", "www 300 IN TYPE1 192.0.2.1\n"},
		{"TYPE numeric junk tail", "example.com.", "www 300 IN TYPE5x target.example.com.\n"},
		{"TYPE overflow", "example.com.", "www 300 IN TYPE65536 \\# 0\n"},
		{"rfc3597 unknown type", "example.com.", "www 300 IN TYPE6500 \\# 4 0a000001\n"},
		{"rfc3597 bad length", "example.com.", "www 300 IN TYPE6500 \\# 3 0a000001\n"},
		{"soa multiline", "example.com.", "@ 3600 IN SOA ns1 admin (\n\t2024010101 ; serial\n\t7200       ; refresh\n\t3600       ; retry\n\t1209600    ; expire\n\t300 )      ; minimum\n"},
		{"soa oneline", "example.com.", "@ 3600 IN SOA ns1.example.com. admin.example.com. 1 2 3 4 5\n"},
		{"paren same line", "example.com.", "www 300 IN A ( 192.0.2.1 )\n"},
		{"close open same line", "example.com.", "www 300 IN A ( 192.0.2.1 ) ( )\n"},
		{"standalone paren line skipped", "example.com.", "(\nwww 300 IN A 192.0.2.1\n"},
		{"standalone close paren skipped", "example.com.", ")\nwww 300 IN A 192.0.2.1\n"},
		{"unbalanced close", "example.com.", "www 300 IN A 192.0.2.1 )\n"},
		{"unclosed at eof", "example.com.", "www 300 IN SOA ns1 admin (\n1 2 3 4 5\n"},
		{"comment only lines", "example.com.", "; leading comment\n\n  ; indented comment\nwww 300 IN A 192.0.2.1\n"},
		{"comment after rdata", "example.com.", "www 300 IN A 192.0.2.1 ; trailing\n"},
		{"txt simple", "example.com.", "www 300 IN TXT \"hello world\"\n"},
		{"txt multi string", "example.com.", "www 300 IN TXT \"a\" \"b\" \"c\"\n"},
		{"txt escaped quote", "example.com.", "www 300 IN TXT \"say \\\"hi\\\"\"\n"},
		{"txt escaped backslash", "example.com.", "www 300 IN TXT \"a\\\\b\"\n"},
		{"txt backslash at eol", "example.com.", "www 300 IN TXT \"trailing\\\"\n"},
		{"txt unterminated quote", "example.com.", "www 300 IN TXT \"open\n"},
		{"txt semicolon inside quotes", "example.com.", "www 300 IN TXT \"a;b\"\n"},
		{"txt paren inside quotes", "example.com.", "www 300 IN TXT \"(not a paren)\"\n"},
		{"txt unquoted", "example.com.", "www 300 IN TXT word\n"},
		{"quoted owner rejected", "example.com.", "\"www\" 300 IN A 192.0.2.1\n"},
		{"mx", "example.com.", "@ 300 IN MX 10 mail\n"},
		{"mx bad pref", "example.com.", "@ 300 IN MX 70000 mail\n"},
		{"srv", "example.com.", "_sip._tcp 300 IN SRV 10 60 5060 sip\n"},
		{"ns cname ptr", "example.com.", "@ 300 IN NS ns1\nalias 300 IN CNAME www\n1 300 IN PTR host\n"},
		{"aaaa full", "example.com.", "www 300 IN AAAA 2001:db8:0:0:0:0:0:1\n"},
		{"aaaa compressed", "example.com.", "www 300 IN AAAA 2001:db8::1\n"},
		{"aaaa trailing compress", "example.com.", "www 300 IN AAAA 1:2:3:4:5:6:7::\n"},
		{"aaaa 4in6", "example.com.", "www 300 IN AAAA ::ffff:192.0.2.1\n"},
		{"aaaa zone rejected", "example.com.", "www 300 IN AAAA fe80::1%eth0\n"},
		{"a leading zero rejected", "example.com.", "www 300 IN A 192.0.2.01\n"},
		{"a octet overflow", "example.com.", "www 300 IN A 192.0.2.256\n"},
		{"a too few fields", "example.com.", "www 300 IN A 192.0.2\n"},
		{"a is AAAA mismatch", "example.com.", "www 300 IN A 2001:db8::1\n"},
		{"aaaa is A mismatch", "example.com.", "www 300 IN AAAA 192.0.2.1\n"},
		{"ds", "example.com.", "sub 300 IN DS 12345 8 2 49fd46e6c4b45c55d4ac69cbd3cd34ac1afe51de\n"},
		{"ds odd hex", "example.com.", "sub 300 IN DS 12345 8 2 49f\n"},
		{"ds uppercase hex", "example.com.", "sub 300 IN DS 12345 8 2 49FD46E6C4B45C55D4AC69CBD3CD34AC1AFE51DE\n"},
		{"dnskey", "example.com.", "@ 300 IN DNSKEY 257 3 8 AwEAAagAIKlVZrpC6Ia7gEzahOR+9W29euxhJhVVLOyQbSEW0O8gcCjF\n"},
		{"dnskey split base64", "example.com.", "@ 300 IN DNSKEY 257 3 8 ( AwEAAagAIKlVZrpC6Ia7gEza hOR+9W29euxhJhVVLOyQbSEW 0O8gcCjF )\n"},
		{"dnskey bad base64", "example.com.", "@ 300 IN DNSKEY 257 3 8 !!!!\n"},
		{"rrsig", "example.com.", "www 300 IN RRSIG A 8 3 300 20260101000000 20251201000000 12345 example.com. dGVzdHNpZw==\n"},
		{"rrsig covered numeric", "example.com.", "www 300 IN RRSIG TYPE1 8 3 300 20260101000000 20251201000000 12345 example.com. dGVzdHNpZw==\n"},
		{"nsec", "example.com.", "alpha 300 IN NSEC beta A AAAA RRSIG NSEC\n"},
		{"unsupported rdata", "example.com.", "www 300 IN OPT foo\n"},
		{"missing rdata", "example.com.", "www 300 IN A\n"},
		{"missing type", "example.com.", "www 300 IN\n"},
		{"bad type", "example.com.", "www 300 IN BOGUS 192.0.2.1\n"},
		{"owner label too long", "example.com.", strings.Repeat("a", 64) + " 300 IN A 192.0.2.1\n"},
		{"owner empty label", "example.com.", "a..b 300 IN A 192.0.2.1\n"},
		{"owner name too long", "example.com.", strings.Repeat("abcdefg.", 32) + " 300 IN A 192.0.2.1\n"},
		{"owner uppercase folded", "example.com.", "WWW.EXAMPLE.COM. 300 IN A 192.0.2.1\n"},
		{"owner unsafe char", "example.com.", "w(w 300 IN A 192.0.2.1\n"},
		{"root origin relative", ".", "www 300 IN A 192.0.2.1\n"},
		{"crlf lines", "example.com.", "www 300 IN A 192.0.2.1\r\nmail 300 IN A 192.0.2.2\r\n"},
		{"cr at eof", "example.com.", "www 300 IN A 192.0.2.1\r"},
		{"no trailing newline", "example.com.", "www 300 IN A 192.0.2.1"},
		{"empty input with origin", "example.com.", ""},
		{"empty input no origin", "", ""},
		{"only comments", "example.com.", "; nothing here\n"},
		{"duplicate rr", "example.com.", "www 300 IN A 192.0.2.1\nwww 300 IN A 192.0.2.1\n"},
		{"ttl overflow 2^31", "example.com.", "www 2147483648 IN A 192.0.2.1\n"},
		{"ttl max", "example.com.", "www 2147483647 IN A 192.0.2.1\n"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			requireSame(t, tc.in, tc.origin)
		})
	}
}

// TestHugeRecordNoLineLimit pins the satellite fix: the reference
// parser's bufio.Scanner rejects single lines over 1 MiB, the streaming
// parser must not. (The reference keeps the bug on purpose — it is the
// executable specification, and this test documents the one divergence.)
func TestHugeRecordNoLineLimit(t *testing.T) {
	var sb strings.Builder
	sb.WriteString("big 300 IN TXT ")
	// ~2 MiB of quoted strings on one line.
	for i := 0; i < 8192; i++ {
		sb.WriteString("\"")
		sb.WriteString(strings.Repeat("x", 250))
		sb.WriteString("\" ")
	}
	sb.WriteString("\n")
	in := sb.String()
	if len(in) <= 1<<20+bufio.MaxScanTokenSize/2 {
		t.Fatalf("test input too small: %d bytes", len(in))
	}

	z, err := Parse(strings.NewReader(in), "example.com.")
	if err != nil {
		t.Fatalf("streaming parser rejected a >1MiB record: %v", err)
	}
	rrs := z.AllRRs()
	if len(rrs) != 1 || rrs[0].Type != dnsmsg.TypeTXT {
		t.Fatalf("unexpected zone contents: %d records", len(rrs))
	}

	_, err = parseReference(strings.NewReader(in), "example.com.")
	if !errors.Is(err, bufio.ErrTooLong) {
		t.Fatalf("reference parser 1 MiB cap is pinned; got err=%v", err)
	}
}

// TestStreamParserZeroAlloc checks the 0 allocs/record steady-state
// claim: it holds BenchmarkZoneParseStreaming's bound of 0 allocs/op.
func TestStreamParserZeroAlloc(t *testing.T) {
	var sb strings.Builder
	for i := 0; i < 256; i++ {
		fmt.Fprintf(&sb, "host%d 300 IN A 192.0.2.%d\n", i, i%250+1)
		fmt.Fprintf(&sb, "host%d 300 IN TXT \"v=spf1 -all\" \"second string\"\n", i)
		fmt.Fprintf(&sb, "host%d 300 IN AAAA 2001:db8::%x\n", i, i+1)
	}
	data := []byte(sb.String())
	sp := NewStreamParserBytes(data, "example.com.")
	var rec Rec
	// Warm up once so buffers reach steady state.
	for sp.Next(&rec) == nil {
	}
	avg := testing.AllocsPerRun(10, func() {
		sp.ResetBytes(data, "example.com.")
		for sp.Next(&rec) == nil {
		}
	})
	if avg != 0 {
		t.Fatalf("steady-state parse allocated %.1f allocs per pass, want 0", avg)
	}
}

// genZone builds a deterministic synthetic zone with the constructs the
// parallel prescan has to navigate: directives mid-file, blank owners,
// multi-line parenthesized records, comments, and quoted strings.
func genZone(records int) string {
	rng := rand.New(rand.NewSource(42))
	var sb strings.Builder
	sb.WriteString("$ORIGIN example.com.\n$TTL 300\n")
	sb.WriteString("@ 3600 IN SOA ns1 admin (\n\t1 ; serial\n\t2 3 4 5 )\n")
	for i := 0; i < records; i++ {
		switch rng.Intn(8) {
		case 0:
			fmt.Fprintf(&sb, "host%d IN A 192.0.2.%d\n", i, rng.Intn(250)+1)
		case 1:
			fmt.Fprintf(&sb, "host%d 600 IN AAAA 2001:db8::%x\n", i, rng.Intn(65536))
		case 2:
			fmt.Fprintf(&sb, "host%d IN TXT \"token=%d\" \"x;y(z)\"\n", i, rng.Int63())
		case 3:
			fmt.Fprintf(&sb, "host%d IN MX (\n\t%d ; pref\n\tmail%d )\n", i, rng.Intn(100), i%7)
		case 4:
			fmt.Fprintf(&sb, "host%d IN A 192.0.2.%d\n IN TXT \"same owner\"\n", i, rng.Intn(250)+1)
		case 5:
			fmt.Fprintf(&sb, "; comment %d\nhost%d IN NS ns%d\n", i, i, i%3)
		case 6:
			fmt.Fprintf(&sb, "$TTL %d\nhost%d IN A 192.0.2.%d\n", rng.Intn(7200)+1, i, rng.Intn(250)+1)
		default:
			fmt.Fprintf(&sb, "host%d IN SRV %d %d %d target%d\n", i, rng.Intn(100), rng.Intn(100), 1024+rng.Intn(60000), i%5)
		}
	}
	return sb.String()
}

// parseSequential is the one-pass in-memory parse the chunked loader
// must reproduce.
func parseSequential(in string, origin dnsmsg.Name) (*Zone, error) {
	return buildZone(NewStreamParserBytes([]byte(in), origin))
}

// TestParallelDeterminism: for every worker count and chunk size —
// including adversarial tiny chunks that force boundaries mid-record
// and mid-parenthesized-SOA — the parallel parser must produce the
// byte-identical zone the sequential parser does.
func TestParallelDeterminism(t *testing.T) {
	in := genZone(400)
	want, err := parseSequential(in, "")
	if err != nil {
		t.Fatalf("sequential parse: %v", err)
	}
	var wantBuf bytes.Buffer
	if _, err := want.WriteTo(&wantBuf); err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2, 3, 4, 8} {
		for _, chunkTarget := range []int{1, 17, 100, 1024, 1 << 20} {
			t.Run(fmt.Sprintf("workers=%d/chunk=%d", workers, chunkTarget), func(t *testing.T) {
				z, err := parseParallel([]byte(in), "", workers, chunkTarget)
				if err != nil {
					t.Fatalf("parallel parse: %v", err)
				}
				var got bytes.Buffer
				if _, err := z.WriteTo(&got); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got.Bytes(), wantBuf.Bytes()) {
					t.Fatalf("parallel zone differs from sequential (workers=%d chunk=%d)", workers, chunkTarget)
				}
			})
		}
	}
}

// TestParallelErrorEquality: errors (and their line numbers) must come
// out of the parallel parser exactly as the sequential one reports
// them, no matter where chunk boundaries land relative to the bad line.
func TestParallelErrorEquality(t *testing.T) {
	base := genZone(120)
	cases := map[string]string{
		"bad rdata mid-file":     base + "broken IN A not.an.ip\n" + genZone(50),
		"bad rdata first":        "broken IN A 999.0.2.1\n" + base,
		"bad directive mid-file": base + "$TTL potato\n" + genZone(30),
		"include mid-file":       base + "$INCLUDE sub.zone\n" + genZone(30),
		"unclosed paren at eof":  base + "x IN SOA a b (\n1 2 3 4 5\n",
		"unbalanced close":       base + "x IN A 192.0.2.1 )\n" + genZone(10),
		"blank owner first":      " IN A 192.0.2.1\n" + base,
		"bad owner name":         base + strings.Repeat("a", 80) + " IN A 192.0.2.1\n",
		"record before origin":   "www IN A 192.0.2.1\n",
	}
	for name, in := range cases {
		t.Run(name, func(t *testing.T) {
			_, seqErr := parseSequential(in, "")
			if seqErr == nil && name != "record before origin" {
				// genZone carries its own $ORIGIN, so only the no-origin
				// case may legitimately... no: every case above must fail.
				t.Fatalf("expected sequential parse to fail")
			}
			for _, workers := range []int{2, 4} {
				for _, chunkTarget := range []int{1, 64, 997} {
					_, parErr := parseParallel([]byte(in), "", workers, chunkTarget)
					if (seqErr == nil) != (parErr == nil) {
						t.Fatalf("workers=%d chunk=%d: accept mismatch: seq=%v par=%v", workers, chunkTarget, seqErr, parErr)
					}
					if seqErr != nil && seqErr.Error() != parErr.Error() {
						t.Fatalf("workers=%d chunk=%d:\nseq: %s\npar: %s", workers, chunkTarget, seqErr, parErr)
					}
				}
			}
		})
	}
}

// TestParseParallelReader covers the io.Reader entry point end to end.
func TestParseParallelReader(t *testing.T) {
	in := genZone(200)
	z, err := ParseParallel(strings.NewReader(in), "", 4)
	if err != nil {
		t.Fatal(err)
	}
	want, err := parseSequential(in, "")
	if err != nil {
		t.Fatal(err)
	}
	var a, b bytes.Buffer
	z.WriteTo(&a)    // bytes.Buffer cannot fail
	want.WriteTo(&b) // bytes.Buffer cannot fail
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("ParseParallel result differs from the sequential parse")
	}
}

// TestParseReadError: Parse reads its whole input before parsing, so a
// reader that fails partway yields the read error, even when the bytes
// read before it hold a syntax error.
func TestParseReadError(t *testing.T) {
	errRead := errors.New("disk on fire")
	r := io.MultiReader(strings.NewReader("www 300 IN A not.an.ip\n"), iotest.ErrReader(errRead))
	if _, err := Parse(r, "example.com."); !errors.Is(err, errRead) {
		t.Fatalf("Parse error %v, want the read error %v", err, errRead)
	}
}

// TestScalarParserEquivalence property-checks the hand-rolled scalar
// parsers in stream_rdata.go against the calls the reference parser
// makes, over generated corpora that include their quirks (wraparound,
// sign handling, junk tails).
func TestScalarParserEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	alphabet := "0123456789smhdwSMHDW.:abcdefABCDEF%x+- "
	randTok := func(n int) string {
		b := make([]byte, rng.Intn(n)+1)
		for i := range b {
			b[i] = alphabet[rng.Intn(len(alphabet))]
		}
		return string(b)
	}

	t.Run("ttl", func(t *testing.T) {
		corpus := []string{"3600", "1h", "1h30m", "1w2d3h4m5s", "0", "4294967295", "4294967296",
			"18446744073709551615", "18446744073709551616", "2147483647", "2147483648",
			"1x", "h", "", "-1", "+1", "10S", "3W", "999999999w"}
		for i := 0; i < 4000; i++ {
			corpus = append(corpus, randTok(12))
		}
		for _, s := range corpus {
			want, wantErr := parseTTL(s)
			got, ok := ttlFromTok([]byte(s), false)
			if ok != (wantErr == nil) {
				t.Fatalf("ttlFromTok(%q) ok=%v, parseTTL err=%v", s, ok, wantErr)
			}
			if ok && got != want {
				t.Fatalf("ttlFromTok(%q) = %d, parseTTL = %d", s, got, want)
			}
			if _, ok := ttlFromTok([]byte(s), true); ok {
				t.Fatalf("ttlFromTok(%q, quoted) accepted; quoted tokens must always fall back", s)
			}
		}
	})

	t.Run("prefixed-uint16", func(t *testing.T) {
		for _, prefix := range []string{"TYPE", "CLASS"} {
			corpus := []string{prefix, prefix + "1", prefix + "65535", prefix + "65536", prefix + "131071",
				prefix + "131072", prefix + "5x", prefix + "+5", prefix + "-5", prefix + "007",
				strings.ToLower(prefix) + "1", "X" + prefix + "1", prefix + "\r0", prefix + "\v\f7",
				prefix + "\u00a0\u30007", prefix + "\r", prefix + "\xff7", prefix + "\r\r\n"}
			for i := 0; i < 3000; i++ {
				corpus = append(corpus, prefix+randTok(8))
			}
			for _, s := range corpus {
				if strings.ContainsAny(s, " \t") {
					// The tokenizer splits on whitespace, so no token
					// ever contains it; Sscanf's %d whitespace skipping
					// is outside the domain being replicated.
					continue
				}
				var want uint16
				_, wantErr := fmt.Sscanf(s, prefix+"%d", &want)
				got, ok := scanPrefixedUint16([]byte(s), prefix)
				if ok != (wantErr == nil) {
					t.Fatalf("scanPrefixedUint16(%q, %s) ok=%v, Sscanf err=%v", s, prefix, ok, wantErr)
				}
				if ok && got != want {
					t.Fatalf("scanPrefixedUint16(%q, %s) = %d, Sscanf = %d", s, prefix, got, want)
				}
			}
		}
	})
}
