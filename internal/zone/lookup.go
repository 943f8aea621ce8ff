package zone

import (
	"ldplayer/internal/dnsmsg"
)

// Result classifies the outcome of an authoritative lookup.
type Result int

// Lookup outcomes.
const (
	ResultAnswer   Result = iota // records in Answer
	ResultNoData                 // name exists, type does not (NOERROR)
	ResultNXDomain               // name does not exist
	ResultReferral               // delegated below a zone cut
	ResultNotZone                // qname not under this zone's origin
)

func (r Result) String() string {
	switch r {
	case ResultAnswer:
		return "answer"
	case ResultNoData:
		return "nodata"
	case ResultNXDomain:
		return "nxdomain"
	case ResultReferral:
		return "referral"
	case ResultNotZone:
		return "notzone"
	}
	return "unknown"
}

// Answer is the fully-assembled authoritative response content for one
// question against one zone.
type Answer struct {
	Result     Result
	Rcode      dnsmsg.Rcode
	Answer     []dnsmsg.RR
	Authority  []dnsmsg.RR
	Additional []dnsmsg.RR
}

const maxCNAMEChain = 8

// glueTypes are the address types chased for referral/NS glue.
var glueTypes = [2]dnsmsg.Type{dnsmsg.TypeA, dnsmsg.TypeAAAA}

// Query runs the RFC 1034 §4.3.2 authoritative algorithm for (qname,
// qtype). When do is true, DNSSEC records (RRSIG, DS, NSEC) accompany
// the ordinary data. The caller owns turning this into a dnsmsg.Msg.
func (z *Zone) Query(qname dnsmsg.Name, qtype dnsmsg.Type, do bool) *Answer {
	a := &Answer{}
	z.QueryInto(a, qname, qtype, do)
	return a
}

// QueryInto is Query writing into a caller-owned Answer, whose section
// slices are truncated and reused — the allocation-free form for serve
// loops that recycle one Answer per worker. The filled sections alias
// a's backing arrays (and the zone's long-lived rrsets), so the caller
// must finish with the result before the next QueryInto on the same a.
func (z *Zone) QueryInto(a *Answer, qname dnsmsg.Name, qtype dnsmsg.Type, do bool) {
	a.Result = ResultAnswer
	a.Rcode = dnsmsg.RcodeSuccess
	a.Answer = a.Answer[:0]
	a.Authority = a.Authority[:0]
	a.Additional = a.Additional[:0]

	if !qname.IsSubdomainOf(z.Origin) {
		a.Result = ResultNotZone
		a.Rcode = dnsmsg.RcodeRefused
		return
	}

	// Delegation check: walk from just below the apex toward qname; the
	// highest cut on the path wins and everything below it is occluded.
	if cut, ok := z.findCut(qname); ok {
		// DS at the cut itself is parent-side data (RFC 4035 §3.1.4.1):
		// answer it authoritatively instead of referring.
		if qtype == dnsmsg.TypeDS && qname == cut {
			z.answerAt(a, qname, qname, qtype, do, 0)
			return
		}
		z.referral(a, cut, do)
		return
	}

	z.answerAt(a, qname, qname, qtype, do, 0)
}

// findCut locates the topmost delegation on the path from the apex to
// qname (exclusive of the apex; inclusive of qname itself only when the
// query is not for the cut's own DS/NS — handled by the caller via the
// convention that queries for the cut name still produce a referral,
// which is what a parent-side authoritative server does for everything
// except DS; DS-at-cut is served authoritatively below). Walking up
// from qname and keeping the last delegation seen yields the topmost
// cut without building the path.
func (z *Zone) findCut(qname dnsmsg.Name) (dnsmsg.Name, bool) {
	var cut dnsmsg.Name
	found := false
	for n := qname; n != z.Origin; n = n.Parent() {
		if node := z.nodes[n]; node != nil && node.set(dnsmsg.TypeNS) != nil {
			cut, found = n, true
		}
		if n.IsRoot() {
			break
		}
	}
	return cut, found
}

// referral fills a with the delegation NS set, DS (when signed and do),
// and glue addresses for in-zone nameservers.
func (z *Zone) referral(a *Answer, cut dnsmsg.Name, do bool) {
	a.Result = ResultReferral
	a.Rcode = dnsmsg.RcodeSuccess
	n := z.nodes[cut]
	nsSet := n.set(dnsmsg.TypeNS)
	a.Authority = nsSet.AppendRRs(a.Authority)
	if do {
		var ok bool
		if a.Authority, ok = n.appendSet(a.Authority, dnsmsg.TypeDS, true); !ok {
			// Unsigned delegation in a signed zone: prove DS absence.
			a.Authority, _ = n.appendSet(a.Authority, dnsmsg.TypeNSEC, true)
		}
	}
	a.Additional = z.appendGlue(a.Additional, nsSet)
}

// appendGlue appends the in-zone addresses of nsSet's nameservers.
func (z *Zone) appendGlue(dst []dnsmsg.RR, nsSet *RRSet) []dnsmsg.RR {
	for _, d := range nsSet.Data {
		if ns, ok := d.(dnsmsg.NS); ok {
			for _, t := range glueTypes {
				dst, _ = z.nodes[ns.Host].appendSet(dst, t, false)
			}
		}
	}
	return dst
}

// answerAt resolves qname at owner (differing from qname only while
// chasing CNAMEs) against the zone's node data.
func (z *Zone) answerAt(a *Answer, qname, owner dnsmsg.Name, qtype dnsmsg.Type, do bool, depth int) {
	n := z.nodes[owner]
	if n == nil {
		if z.ents[owner] > 0 {
			// Empty non-terminal: exists, but holds nothing (NODATA).
			z.noData(a, do)
			return
		}
		z.tryWildcard(a, owner, qtype, do, depth)
		return
	}

	// CNAME takes over unless the query asks for CNAME (or ANY).
	if cname := n.set(dnsmsg.TypeCNAME); cname != nil && qtype != dnsmsg.TypeCNAME && qtype != dnsmsg.TypeANY {
		a.Answer, _ = n.appendSet(a.Answer, dnsmsg.TypeCNAME, do)
		a.Result = ResultAnswer
		a.Rcode = dnsmsg.RcodeSuccess
		target := cname.Data[0].(dnsmsg.CNAME).Target
		if depth < maxCNAMEChain && target.IsSubdomainOf(z.Origin) {
			if cut, ok := z.findCut(target); ok {
				z.referral(a, cut, do)
				a.Result = ResultAnswer // CNAME answered; referral is supplementary
				return
			}
			sub := &Answer{}
			z.answerAt(sub, target, target, qtype, do, depth+1)
			a.Answer = append(a.Answer, sub.Answer...)
			a.Authority = append(a.Authority, sub.Authority...)
			a.Additional = append(a.Additional, sub.Additional...)
		}
		return
	}

	if qtype == dnsmsg.TypeANY {
		// Sets are in ascending type order, so ANY answers are too.
		for _, s := range n.sets {
			a.Answer, _ = n.appendSet(a.Answer, s.Type, do)
		}
		if len(a.Answer) > 0 {
			a.Result = ResultAnswer
			a.Rcode = dnsmsg.RcodeSuccess
			return
		}
		z.noData(a, do)
		return
	}

	start := len(a.Answer)
	if ans, ok := n.appendSet(a.Answer, qtype, do); ok {
		a.Answer = ans
		if owner != qname {
			// Wildcard synthesis: rewrite the owner to the query name.
			for i := start; i < len(ans); i++ {
				ans[i].Name = qname
			}
		}
		a.Result = ResultAnswer
		a.Rcode = dnsmsg.RcodeSuccess
		// NS answers at the apex bring their address glue along.
		if qtype == dnsmsg.TypeNS {
			a.Additional = z.appendGlue(a.Additional, n.set(qtype))
		}
		return
	}
	z.noData(a, do)
}

// tryWildcard looks for *.closest-encloser per RFC 1034 §4.3.3 (RFC 4592
// semantics, simplified to the cases exercised by the experiments).
func (z *Zone) tryWildcard(a *Answer, qname dnsmsg.Name, qtype dnsmsg.Type, do bool, depth int) {
	// Find the closest encloser: the longest existing ancestor.
	enc := qname.Parent()
	for ; ; enc = enc.Parent() {
		if enc == z.Origin || z.nodes[enc] != nil || z.ents[enc] > 0 {
			break
		}
		if enc.IsRoot() {
			break
		}
	}
	wild := dnsmsg.Name("*." + string(enc))
	if enc.IsRoot() {
		wild = "*."
	}
	if z.nodes[wild] != nil {
		z.answerAt(a, qname, wild, qtype, do, depth)
		if do && a.Result == ResultAnswer {
			// A wildcard answer also proves no closer match exists.
			a.Authority, _ = z.nodes[enc].appendSet(a.Authority, dnsmsg.TypeNSEC, true)
		}
		return
	}
	z.nxdomain(a, enc, do)
}

// noData fills the NOERROR/no-records negative: SOA (and its RRSIG and
// the owner's NSEC when signed) in the authority section.
func (z *Zone) noData(a *Answer, do bool) {
	a.Result = ResultNoData
	a.Rcode = dnsmsg.RcodeSuccess
	z.negativeSOA(a, do)
}

func (z *Zone) nxdomain(a *Answer, encloser dnsmsg.Name, do bool) {
	a.Result = ResultNXDomain
	a.Rcode = dnsmsg.RcodeNXDomain
	z.negativeSOA(a, do)
	if do {
		// Simplified denial: the closest encloser's NSEC stands in for the
		// full RFC 4035 pair; response sizing (what the experiments
		// measure) is preserved.
		a.Authority, _ = z.nodes[encloser].appendSet(a.Authority, dnsmsg.TypeNSEC, true)
	}
}

func (z *Zone) negativeSOA(a *Answer, do bool) {
	a.Authority, _ = z.nodes[z.Origin].appendSet(a.Authority, dnsmsg.TypeSOA, do)
}
