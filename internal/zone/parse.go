package zone

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"

	"ldplayer/internal/dnsmsg"
)

// Parse reads a zone in RFC 1035 master-file syntax. Supported:
// $ORIGIN and $TTL directives, @ for the origin, relative names, omitted
// owner (repeat previous), parenthesized record continuation (SOA style),
// ';' comments, quoted TXT strings, and the record types this codec
// models. origin may be "" when the file carries its own $ORIGIN.
//
// Parse is ParseParallel over GOMAXPROCS workers: it reads all of r,
// then runs the byte-slice tokenizer (stream.go), split across cores
// when the input is large. Unlike the reference parser
// (reference_test.go) it has no line-length limit. A read error is
// returned as is, ahead of any syntax error in the bytes before it.
func Parse(r io.Reader, origin dnsmsg.Name) (*Zone, error) {
	return ParseParallel(r, origin, 0)
}

// buildZone drains a StreamParser into a Zone in one sequential pass,
// replicating the reference parser's lazy zone creation and error
// wrapping.
func buildZone(sp *StreamParser) (*Zone, error) {
	var rec Rec
	var z *Zone
	for {
		err := sp.Next(&rec)
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		if z == nil {
			o, _ := sp.ZoneOrigin()
			z = New(o)
		}
		if err := z.Add(rec.RR()); err != nil {
			return nil, fmt.Errorf("zone parse line %d: %w", rec.Line, err)
		}
	}
	if z == nil {
		if o, ok := sp.ZoneOrigin(); ok {
			z = New(o)
		} else if sp.Origin() == "" {
			return nil, fmt.Errorf("zone parse: empty input and no origin")
		} else {
			z = New(sp.Origin())
		}
	}
	return z, nil
}

// ParseString is Parse over a string, for tests and embedded zones: the
// same loader, with no reader to drain.
func ParseString(s string, origin dnsmsg.Name) (*Zone, error) {
	return parseParallel([]byte(s), origin, 0, 0)
}

// parseTTL parses a TTL: plain seconds or BIND unit suffixes (1h30m).
func parseTTL(s string) (uint32, error) {
	if s == "" {
		return 0, fmt.Errorf("empty TTL")
	}
	if v, err := strconv.ParseUint(s, 10, 32); err == nil {
		return uint32(v), nil
	}
	total := uint64(0)
	num := uint64(0)
	seen := false
	for _, c := range strings.ToLower(s) {
		switch {
		case c >= '0' && c <= '9':
			num = num*10 + uint64(c-'0')
			seen = true
		case c == 's' || c == 'm' || c == 'h' || c == 'd' || c == 'w':
			if !seen {
				return 0, fmt.Errorf("bad TTL %q", s)
			}
			mult := map[rune]uint64{'s': 1, 'm': 60, 'h': 3600, 'd': 86400, 'w': 604800}[c]
			total += num * mult
			num, seen = 0, false
		default:
			return 0, fmt.Errorf("bad TTL %q", s)
		}
	}
	if seen {
		total += num
	}
	if total > 1<<31 {
		return 0, fmt.Errorf("TTL %q overflows", s)
	}
	return uint32(total), nil
}

// WriteTo serializes the zone in master-file form, loadable by Parse:
// $ORIGIN, then the apex SOA set (conventional, and required by some
// loaders), then every owner in canonical order with its rrsets in
// type order followed by its RRSIGs in covered-type order. Each record
// is one line — owner, TTL, class, type and rdata, tab-separated — built
// in one reused buffer and handed to the bufio.Writer in one Write.
func (z *Zone) WriteTo(w io.Writer) (int64, error) {
	bw := bufio.NewWriter(w)
	var total int64
	line := make([]byte, 0, 256)
	put := func() error {
		n, err := bw.Write(line)
		total += int64(n)
		return err
	}
	writeSet := func(s *RRSet) error {
		for _, d := range s.Data {
			line = append(append(line[:0], s.Name...), '\t')
			line = append(strconv.AppendUint(line, uint64(s.TTL), 10), '\t')
			line = append(append(line, s.Class.String()...), '\t')
			line = append(append(line, s.Type.String()...), '\t')
			line = append(append(line, d.String()...), '\n')
			if err := put(); err != nil {
				return err
			}
		}
		return nil
	}

	line = append(append(append(line, "$ORIGIN "...), z.Origin...), '\n')
	if err := put(); err != nil {
		return total, err
	}
	soa := z.SOA()
	if soa != nil {
		if err := writeSet(soa); err != nil {
			return total, err
		}
	}
	for _, name := range z.Names() {
		n := z.nodes[name]
		for _, s := range n.sets {
			if s == soa {
				continue // written first
			}
			if err := writeSet(s); err != nil {
				return total, err
			}
		}
		for _, s := range n.sigs {
			if err := writeSet(s); err != nil {
				return total, err
			}
		}
	}
	return total, bw.Flush()
}
