// Package zone implements DNS zone data: an in-memory zone tree loaded
// from master files (or built programmatically), and the authoritative
// lookup algorithm — exact matches, CNAME chains, wildcard synthesis,
// delegations with glue, NXDOMAIN/NODATA negatives, and DNSSEC record
// attachment when the DO bit is set.
//
// The meta-DNS-server (internal/server) hosts many Zones behind
// split-horizon views; the recursive resolver walks referrals produced
// here exactly as it would across real servers.
package zone

import (
	"bytes"
	"fmt"
	"slices"

	"ldplayer/internal/dnsmsg"
)

// RRSet is a set of records sharing owner name, type and class.
type RRSet struct {
	Name  dnsmsg.Name
	Type  dnsmsg.Type
	Class dnsmsg.Class
	TTL   uint32
	Data  []dnsmsg.RData
}

// RRs expands the set into individual resource records.
func (s *RRSet) RRs() []dnsmsg.RR {
	return s.AppendRRs(make([]dnsmsg.RR, 0, len(s.Data)))
}

// AppendRRs appends the set's records to dst and returns it — the
// allocation-free form of RRs for callers assembling answers into
// reused slices (the serve hot path).
func (s *RRSet) AppendRRs(dst []dnsmsg.RR) []dnsmsg.RR {
	for _, d := range s.Data {
		dst = append(dst, dnsmsg.RR{Name: s.Name, Type: s.Type, Class: s.Class, TTL: s.TTL, Data: d})
	}
	return dst
}

// node holds all rrsets at one owner name plus the RRSIGs covering them,
// in short type-ordered slices (sigs by covered type) scanned linearly:
// as fast as a map for a handful of sets, and far cheaper to build. The
// first set, its first record and its slot live in the node, so an
// owner with one record is one allocation.
type node struct {
	sets []*RRSet
	sigs []*RRSet

	first     RRSet
	firstData [1]dnsmsg.RData
	firstSlot [1]*RRSet
}

func (n *node) set(t dnsmsg.Type) *RRSet { _, s := search(n.sets, t, false); return s }
func (n *node) sig(t dnsmsg.Type) *RRSet { _, s := search(n.sigs, t, true); return s }

// search finds the set with key in a type-ordered list (ordered by
// covered type when sigs): its index, or nil and the index it belongs at.
func search(list []*RRSet, key dnsmsg.Type, sigs bool) (int, *RRSet) {
	for i, s := range list {
		t := s.Type
		if sigs {
			t = s.Data[0].(dnsmsg.RRSIG).TypeCovered // Add files only RRSIGs here
		}
		if t == key {
			return i, s
		}
		if t > key {
			return i, nil
		}
	}
	return len(list), nil
}

// appendSet appends n's rrset of type t, and when do the RRSIGs covering
// it, to dst; ok is false when n (which may be nil) has no such set.
func (n *node) appendSet(dst []dnsmsg.RR, t dnsmsg.Type, do bool) (out []dnsmsg.RR, ok bool) {
	if n == nil {
		return dst, false
	}
	s := n.set(t)
	if s == nil {
		return dst, false
	}
	dst = s.AppendRRs(dst)
	if do {
		if sig := n.sig(t); sig != nil {
			dst = sig.AppendRRs(dst)
		}
	}
	return dst, true
}

// newSet inserts an empty set like rr at index i of *list (n.sets or
// n.sigs); the owner's first set is the one stored in the node.
func (n *node) newSet(list *[]*RRSet, i int, rr dnsmsg.RR) *RRSet {
	var s *RRSet
	if len(n.sets)+len(n.sigs) == 0 {
		n.first = RRSet{Name: rr.Name, Type: rr.Type, Class: rr.Class, TTL: rr.TTL, Data: n.firstData[:0]}
		s = &n.first
		*list = n.firstSlot[:0]
	} else {
		s = &RRSet{Name: rr.Name, Type: rr.Type, Class: rr.Class, TTL: rr.TTL}
	}
	*list = slices.Insert(*list, i, s)
	return s
}

// Zone is one zone of authority rooted at Origin.
type Zone struct {
	Origin dnsmsg.Name
	Class  dnsmsg.Class

	nodes   map[dnsmsg.Name]*node
	ents    map[dnsmsg.Name]int // empty non-terminals: reference counts
	records int                 // records Add accepted, RRSIGs included
	packed  [2][]byte           // the two rdata Add's duplicate check compares
}

// New creates an empty IN-class zone rooted at origin.
func New(origin dnsmsg.Name) *Zone {
	return &Zone{
		Origin: origin,
		Class:  dnsmsg.ClassINET,
		nodes:  make(map[dnsmsg.Name]*node),
		ents:   make(map[dnsmsg.Name]int),
	}
}

// Add inserts one record. Records outside the zone are rejected; TTLs
// within an rrset follow the first record added (RFC 2181 §5.2).
func (z *Zone) Add(rr dnsmsg.RR) error {
	if !rr.Name.IsSubdomainOf(z.Origin) {
		return fmt.Errorf("zone %s: record %s out of zone", z.Origin, rr.Name)
	}
	n := z.nodes[rr.Name]
	if n == nil {
		n = &node{}
		z.nodes[rr.Name] = n
		// Register empty non-terminals on the path from origin to owner.
		for p := rr.Name.Parent(); p != z.Origin && p.IsSubdomainOf(z.Origin); p = p.Parent() {
			z.ents[p]++
		}
	}
	list, key, sigs := &n.sets, rr.Type, false
	if rr.Type == dnsmsg.TypeRRSIG {
		sig, ok := rr.Data.(dnsmsg.RRSIG)
		if !ok {
			return fmt.Errorf("zone %s: RRSIG with wrong rdata at %s", z.Origin, rr.Name)
		}
		list, key, sigs = &n.sigs, sig.TypeCovered, true
	}
	i, set := search(*list, key, sigs)
	if set == nil {
		set = n.newSet(list, i, rr)
	} else if !sigs && z.holds(set, rr.Data) {
		// Duplicate suppression keeps zone construction from traces
		// idempotent; RRSIGs are kept as given.
		return nil
	}
	set.Data = append(set.Data, rr.Data)
	z.records++
	return nil
}

// holds reports whether set has a record whose rdata packs to the same
// bytes as d. Both sides pack into z's reused buffers.
func (z *Zone) holds(set *RRSet, d dnsmsg.RData) bool {
	var err error
	if z.packed[0], err = dnsmsg.AppendRData(z.packed[0][:0], d); err != nil {
		return false
	}
	for _, e := range set.Data {
		if z.packed[1], err = dnsmsg.AppendRData(z.packed[1][:0], e); err == nil && bytes.Equal(z.packed[0], z.packed[1]) {
			return true
		}
	}
	return false
}

// Lookup returns the rrset for (name, type) if it exists verbatim.
func (z *Zone) Lookup(name dnsmsg.Name, t dnsmsg.Type) (*RRSet, bool) {
	if n := z.nodes[name]; n != nil {
		s := n.set(t)
		return s, s != nil
	}
	return nil, false
}

// Sigs returns the RRSIG set covering (name, coveredType), if present.
func (z *Zone) Sigs(name dnsmsg.Name, covered dnsmsg.Type) (*RRSet, bool) {
	if n := z.nodes[name]; n != nil {
		s := n.sig(covered)
		return s, s != nil
	}
	return nil, false
}

// SOA returns the zone's SOA rrset, or nil when the zone is not complete.
func (z *Zone) SOA() *RRSet {
	s, _ := z.Lookup(z.Origin, dnsmsg.TypeSOA)
	return s
}

// Names returns every owner name in DNSSEC canonical order.
func (z *Zone) Names() []dnsmsg.Name {
	out := make([]dnsmsg.Name, 0, len(z.nodes))
	for n := range z.nodes {
		out = append(out, n)
	}
	slices.SortFunc(out, dnsmsg.CanonicalCompare)
	return out
}

// Sets returns all rrsets at a name (not RRSIGs) in ascending type
// order, nil if the name has none.
func (z *Zone) Sets(name dnsmsg.Name) []*RRSet {
	n := z.nodes[name]
	if n == nil {
		return nil
	}
	return append(make([]*RRSet, 0, len(n.sets)), n.sets...)
}

// AllRRs returns every record in the zone (including RRSIGs), owners in
// canonical order, for serialization and zone transfer.
func (z *Zone) AllRRs() []dnsmsg.RR {
	out := make([]dnsmsg.RR, 0, z.records)
	for _, name := range z.Names() {
		n := z.nodes[name]
		for _, s := range n.sets {
			out = s.AppendRRs(out)
		}
		for _, s := range n.sigs {
			out = s.AppendRRs(out)
		}
	}
	return out
}

// RecordCount counts all records including RRSIGs.
func (z *Zone) RecordCount() int { return z.records }

// Cuts returns the delegation points (names below the apex owning NS
// rrsets) in canonical order. The zone constructor uses these to split
// intermediate zones.
func (z *Zone) Cuts() []dnsmsg.Name {
	var out []dnsmsg.Name
	for name, n := range z.nodes {
		if name != z.Origin && n.set(dnsmsg.TypeNS) != nil {
			out = append(out, name)
		}
	}
	slices.SortFunc(out, dnsmsg.CanonicalCompare)
	return out
}

// Validate checks the structural invariants a loadable zone must satisfy:
// an SOA at the apex, NS records at the apex, and no CNAME coexisting
// with other data at a name (RFC 1034 §3.6.2).
func (z *Zone) Validate() error {
	if z.SOA() == nil {
		return fmt.Errorf("zone %s: missing SOA at apex", z.Origin)
	}
	if _, ok := z.Lookup(z.Origin, dnsmsg.TypeNS); !ok {
		return fmt.Errorf("zone %s: missing NS at apex", z.Origin)
	}
	for name, n := range z.nodes {
		if cname := n.set(dnsmsg.TypeCNAME); cname != nil && len(n.sets) > 1 {
			return fmt.Errorf("zone %s: CNAME and other data at %s", z.Origin, name)
		} else if cname != nil && len(cname.Data) > 1 {
			return fmt.Errorf("zone %s: multiple CNAMEs at %s", z.Origin, name)
		}
	}
	return nil
}
