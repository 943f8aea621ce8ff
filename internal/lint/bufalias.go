package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// BufAlias checks the transient-buffer lifetime contracts the zero-copy
// hot paths (PRs 4 and 7) state only in doc comments: values handed out
// by pcap.Reader.ReadZeroCopy, zone.StreamParser.Next, and the
// dnsmsg arena codec (pooled GetMsg messages, UnpackBuffer receivers),
// transport.GetBatch datagram batches (whose Bufs PutBatch hands to the
// next ReadBatch), and transport.RecvPooled receive buffers (borrowed
// only while a message is in hand) alias storage that is recycled by the
// NEXT read, Reset, PutMsg, PutBatch, or PutBuf.
// A retained alias does not crash — it silently yields bytes from a
// different packet, token, or message, which in a byte-faithful replay
// tool corrupts results rather than failing loudly. bufalias flags any
// value derived from such a transient source that escapes the acquiring
// frame: stored into a struct field or package-level variable, inserted
// into a map or a pre-existing slice, sent on a channel, or handed to a
// spawned goroutine (captured free variable or direct argument).
//
// Blessed copy points need no special-casing: the dataflow engine does
// not see through calls, so Packet.Clone, Rec.RR/RData, Name.Clone,
// Msg.Detach, copy into caller storage, append([]byte(nil), x...)
// (a content copy), and []byte<->string conversions all launder the
// taint naturally.
//
// Limits (the pass is intraprocedural, see flow.go): a callee that
// retains its argument, a receive of a previously-sent transient, and
// break/goto paths are invisible. Escapes through those need a reviewer,
// not this checker.
type BufAlias struct {
	ModulePath string
}

func (BufAlias) Name() string { return "bufalias" }
func (BufAlias) Doc() string {
	return "values aliasing transient buffers (ReadZeroCopy packets, zone tokens, dnsmsg arenas, pooled datagram batches and receive buffers) must not outlive the next read"
}

const bufAliasRemedy = "copy it first (Clone / append([]byte(nil), ...) / explicit copy) or //ldp:nolint bufalias with the lifetime story"

// transient source descriptors, keyed by declaring package suffix and
// function name.
type bufSource struct {
	pkgSuffix string // appended to ModulePath
	recv      string // receiver type name, "" for package functions
	fn        string
	desc      string
	kind      string
	// how the tag attaches: "result0" tags the first result,
	// "arg0" the first argument (through &x), "recv" the receiver.
	via string
}

var bufSources = []bufSource{
	{"/internal/pcap", "Reader", "ReadZeroCopy", "pcap.Reader.ReadZeroCopy packet", "pcap", "result0"},
	{"/internal/zone", "StreamParser", "Next", "zone.StreamParser token view", "zonetok", "arg0"},
	{"/internal/dnsmsg", "", "GetMsg", "pooled dnsmsg.Msg arena", "arena", "result0"},
	{"/internal/dnsmsg", "Msg", "UnpackBuffer", "pooled dnsmsg.Msg arena", "arena", "recv"},
	{"/internal/transport", "", "GetBatch", "pooled transport datagram batch", "dgbatch", "result0"},
	{"/internal/transport", "", "RecvPooled", "pooled transport receive buffer", "recvbuf", "result0"},
}

// matchSource resolves a call against the source table (nil when the
// call is not a transient source). Matching keys on the resolved
// callee's declaring package, name, and receiver type, so same-named
// functions elsewhere never match.
func (c BufAlias) matchSource(p *Package, call *ast.CallExpr) *bufSource {
	fn := calleeOf(p, call)
	if fn == nil || fn.Pkg() == nil {
		return nil
	}
	for i := range bufSources {
		s := &bufSources[i]
		if fn.Name() != s.fn || fn.Pkg().Path() != c.ModulePath+s.pkgSuffix {
			continue
		}
		recv := fn.Signature().Recv()
		if s.recv == "" {
			if recv == nil {
				return s
			}
			continue
		}
		if recv != nil && isNamedType(recv.Type(), c.ModulePath+s.pkgSuffix, s.recv) {
			return s
		}
	}
	return nil
}

func (c BufAlias) Check(p *Package) []Diagnostic {
	var out []Diagnostic
	seen := map[string]bool{} // position+message dedupe across merged paths

	report := func(node ast.Node, format string, args ...any) {
		d := diag(p, c.Name(), node, format, args...)
		key := d.Pos.String() + d.Message
		if seen[key] {
			return
		}
		seen[key] = true
		out = append(out, d)
	}

	fa := &flowAnalysis{
		p:            p,
		trackDerived: true,
		deriveType: func(t types.Type) bool {
			return refCarrying(t, c.ModulePath, nil)
		},
		sourceResults: func(call *ast.CallExpr) []*Tag {
			s := c.matchSource(p, call)
			if s == nil || s.via != "result0" {
				return nil
			}
			// The first result is the transient; the rest (error, length)
			// stay untagged.
			tags := make([]*Tag, max(calleeOf(p, call).Signature().Results().Len(), 1))
			tags[0] = &Tag{Origin: call, Desc: s.desc, Kind: s.kind}
			return tags
		},
		sourceArgs: func(call *ast.CallExpr) map[int]*Tag {
			s := c.matchSource(p, call)
			if s == nil {
				return nil
			}
			tag := &Tag{Origin: call, Desc: s.desc, Kind: s.kind}
			switch s.via {
			case "arg0":
				return map[int]*Tag{0: tag}
			case "recv":
				return map[int]*Tag{-1: tag}
			}
			return nil
		},
		onStore: func(lhs ast.Expr, lhsKind string, rhs ast.Expr, tag *Tag) {
			if lhsKind == "map key" {
				report(lhs, "%s aliases a %s but is used as a map key — the map retains it past the next read; %s",
					exprString(p, rhs), tag.Desc, bufAliasRemedy)
				return
			}
			report(lhs, "%s aliases a %s but is stored into a %s — the backing buffer is recycled by the next read; %s",
				exprString(p, rhs), tag.Desc, lhsKind, bufAliasRemedy)
		},
		onSend: func(s *ast.SendStmt, tag *Tag) {
			report(s, "%s aliases a %s but is sent on a channel — the receiver outlives the buffer; %s",
				exprString(p, s.Value), tag.Desc, bufAliasRemedy)
		},
		onCapture: func(g *ast.GoStmt, id *ast.Ident, arg ast.Expr, tag *Tag) {
			if id != nil {
				report(g, "spawned goroutine captures %s, which aliases a %s — the goroutine races the next read; %s",
					id.Name, tag.Desc, bufAliasRemedy)
				return
			}
			report(g, "%s aliases a %s but is passed to a spawned goroutine — the goroutine races the next read; %s",
				exprString(p, arg), tag.Desc, bufAliasRemedy)
		},
	}
	fa.analyze()
	return out
}

// refCarrying reports whether a value of type t can alias a transient
// buffer — i.e. whether taint should survive derivation into it.
// Reference-shaped types (slices, maps, strings — dnsmsg.Name is a
// string view into the arena — interfaces, channels) carry; pointers and
// arrays carry if their element does. Named structs declared OUTSIDE the
// module are opaque non-carriers: time.Time holds a *Location and
// netip.Addr an interned pointer, but neither can alias our buffers, and
// treating them as carriers would taint every Packet.Time copy. Structs
// declared in the module recurse over their fields (pcap.Packet carries
// via Data, zone.Rec via its byte-slice fields). Scalars and funcs never
// carry. seen guards recursive struct types; pass nil at the top.
func refCarrying(t types.Type, modulePath string, seen map[types.Type]bool) bool {
	t = types.Unalias(t)
	if seen == nil {
		seen = map[types.Type]bool{}
	}
	if seen[t] {
		return false
	}
	seen[t] = true
	switch u := t.Underlying().(type) {
	case *types.Slice, *types.Map, *types.Interface, *types.Chan:
		return true
	case *types.Basic:
		return u.Info()&types.IsString != 0
	case *types.Pointer:
		return refCarrying(u.Elem(), modulePath, seen)
	case *types.Array:
		return refCarrying(u.Elem(), modulePath, seen)
	case *types.Struct:
		if n, ok := t.(*types.Named); ok {
			pkg := n.Obj().Pkg()
			if pkg == nil || (pkg.Path() != modulePath && !strings.HasPrefix(pkg.Path(), modulePath+"/")) {
				return false
			}
		}
		for i := 0; i < u.NumFields(); i++ {
			if refCarrying(u.Field(i).Type(), modulePath, seen) {
				return true
			}
		}
		return false
	}
	return false
}
