package zone_test

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"slices"
	"testing"

	"ldplayer/internal/dnsmsg"
	"ldplayer/internal/zone"
	"ldplayer/internal/zonegen"
)

func init() { zone.HierarchyZones = hierarchyZones }

// hierarchyZones is zone.HierarchyZones. It generates the hierarchy
// afresh on each call, so its 2 011 zones do not stay live, and weigh
// on the collector, for the rest of the test binary.
func hierarchyZones(tb testing.TB) []*zone.Zone {
	tb.Helper()
	h, err := zonegen.Generate(zonegen.Config{SLDsPerTLD: 200, HostsPerSLD: 8, Seed: 1})
	if err != nil {
		tb.Fatal(err)
	}
	return sortedZones(h)
}

// sortedZones lists a hierarchy's zones in canonical order of origin.
func sortedZones(h *zonegen.Hierarchy) []*zone.Zone {
	origins := make([]dnsmsg.Name, 0, len(h.Zones))
	for o := range h.Zones {
		origins = append(origins, o)
	}
	slices.SortFunc(origins, dnsmsg.CanonicalCompare)
	zs := make([]*zone.Zone, len(origins))
	for i, o := range origins {
		zs[i] = h.Zones[o]
	}
	return zs
}

// allRRsWriteTo is the master-file writer before it walked the zone's
// nodes: every record copied out by AllRRs and printed through
// RR.String and fmt.Fprintln. It pins the output format.
func allRRsWriteTo(z *zone.Zone, w io.Writer) (int64, error) {
	bw := bufio.NewWriter(w)
	var total int64
	n, err := fmt.Fprintf(bw, "$ORIGIN %s\n", z.Origin)
	total += int64(n)
	if err != nil {
		return total, err
	}
	if soa := z.SOA(); soa != nil {
		for _, rr := range soa.RRs() {
			n, err := fmt.Fprintln(bw, rr.String())
			total += int64(n)
			if err != nil {
				return total, err
			}
		}
	}
	for _, rr := range z.AllRRs() {
		if rr.Type == dnsmsg.TypeSOA && rr.Name == z.Origin {
			continue
		}
		n, err := fmt.Fprintln(bw, rr.String())
		total += int64(n)
		if err != nil {
			return total, err
		}
	}
	return total, bw.Flush()
}

// everyTypeZone holds every record type the codec models, TXT strings
// that need quoting and escaping, a wildcard, and an unknown type in
// the RFC 3597 generic form.
const everyTypeZone = `$ORIGIN types.test.
$TTL 300
@        IN SOA   ns.types.test. hostmaster.types.test. 7 3600 900 604800 60
@        IN NS    ns.types.test.
@        IN MX    10 mail.types.test.
@        IN TXT   "v=spf1 -all" "two words" "semi;colon" "quote\"inside" "back\\slash" ""
@        IN DNSKEY 257 3 8 AwEAAcw5QLr0ZtJ6qVQ/KErd6J7Hzu7HW0bBsOv9sC5bRQ==
@        IN NSEC  a.types.test. SOA NS MX TXT DNSKEY NSEC RRSIG TYPE65280
@        IN RRSIG SOA 8 2 300 1893456000 1577836800 12345 types.test. c2lnbmF0dXJl
ns       IN A     192.0.2.53
ns       IN AAAA  2001:db8::53
a        IN CNAME ns.types.test.
*        IN A     192.0.2.7
_dns._udp IN SRV  0 5 53 ns.types.test.
4.2.0.192.in-addr IN PTR ns.types.test.
child    IN NS    ns.child.types.test.
child    IN DS    12345 8 2 2BB183AF5F22588179A53B0A98631FAD1A292118A8C10F4B0C8F0F1F39C0C4AB
ns.child IN A     192.0.2.54
odd      IN TYPE65280 \# 4 0A0B0C0D
odd      IN TYPE4000  \# 0
`

// TestWriteToUnchanged holds WriteTo byte for byte to the AllRRs
// writer: over the 2 011-zone hierarchy, a signed hierarchy (DNSKEY,
// RRSIG, NSEC, DS) and a zone of every modelled type.
func TestWriteToUnchanged(t *testing.T) {
	zs := hierarchyZones(t)
	signed, err := zonegen.Generate(zonegen.Config{TLDs: []string{"com"}, SLDsPerTLD: 2, Wildcard: true, Sign: true, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	zs = append(zs, sortedZones(signed)...)
	types, err := zone.ParseString(everyTypeZone, "")
	if err != nil {
		t.Fatal(err)
	}
	zs = append(zs, types)

	var got, want bytes.Buffer
	for _, z := range zs {
		got.Reset()
		want.Reset()
		gn, gerr := z.WriteTo(&got)
		wn, werr := allRRsWriteTo(z, &want)
		if gerr != nil || werr != nil {
			t.Fatalf("%s: WriteTo error %v, AllRRs writer error %v", z.Origin, gerr, werr)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) || gn != wn {
			t.Fatalf("%s: WriteTo wrote %d bytes:\n%s\nthe AllRRs writer %d:\n%s", z.Origin, gn, got.Bytes(), wn, want.Bytes())
		}
	}
}
