package lint

import (
	"go/ast"
	"sort"
)

// PoolReturn checks the message-pool ownership contract around
// dnsmsg.GetMsg/PutMsg: every pooled message must go back to the pool on
// every path out of the function that acquired it. A leaked message is
// not a correctness bug — the pool just allocates a fresh one — but it
// silently converts the zero-allocation serve and replay hot paths back
// into one-allocation-per-query code, which is exactly the regression
// class the benchmark gate exists to catch.
//
// PoolReturn is a client of the shared dataflow engine (flow.go): the
// engine tracks which variables hold a GetMsg result along each path,
// and this checker supplies the source (GetMsg), the releases
// (dnsmsg.PutMsg(m) anywhere in a leaf statement, including inside
// nested function literals — deferred cleanup closures, goroutine
// bodies that capture m), the transfers (returning the message hands it
// to the caller; passing it as an argument of a go or defer call hands
// it to the spawned body, whose own discipline is checked when its
// function literal is scanned), and the exit audit — a return, a
// continue that re-enters the loop iteration that acquired the message,
// or falling off the end of the function while the message is still
// held flags the GetMsg call. Subtler transfers — sending the message
// on a channel, stashing it in a struct — carry an //ldp:nolint
// poolreturn comment on the GetMsg line with the ownership story; the
// bufalias checker audits those same escapes from the buffer-lifetime
// side. Leaks via break or goto are not modeled.
type PoolReturn struct {
	ModulePath string
}

func (PoolReturn) Name() string { return "poolreturn" }
func (PoolReturn) Doc() string {
	return "heuristic: every dnsmsg.GetMsg is matched by PutMsg on all exit paths"
}

// isPoolCall reports whether call invokes internal/dnsmsg's name
// (GetMsg or PutMsg).
func (c PoolReturn) isPoolCall(p *Package, call *ast.CallExpr, name string) bool {
	fn := calleeOf(p, call)
	return fn != nil && fn.Pkg() != nil &&
		fn.Pkg().Path() == c.ModulePath+"/internal/dnsmsg" && fn.Name() == name
}

func (c PoolReturn) Check(p *Package) []Diagnostic {
	var out []Diagnostic
	// reported dedupes by the GetMsg call so each acquisition is flagged
	// once even when several paths leak it; the diagnostic anchors at
	// the GetMsg so a line-level //ldp:nolint there covers all paths.
	reported := map[ast.Node]bool{}

	fa := &flowAnalysis{
		p: p,
		sourceResults: func(call *ast.CallExpr) []*Tag {
			if c.isPoolCall(p, call, "GetMsg") {
				return []*Tag{{Origin: call, Desc: "dnsmsg.GetMsg result", Kind: "pool"}}
			}
			return nil
		},
		transferReturn:    true,
		transferSpawnArgs: true,
		onStmt: func(st flowState, s ast.Stmt) {
			// Releases live in leaf statements only: scanning compound
			// statements here would see PutMsg calls in branches not
			// yet taken.
			switch s.(type) {
			case *ast.AssignStmt, *ast.ExprStmt, *ast.DeferStmt, *ast.GoStmt:
				c.releaseIn(p, st, s)
			}
		},
		onDiscard: func(call *ast.CallExpr, tag *Tag) {
			if reported[tag.Origin] {
				return
			}
			reported[tag.Origin] = true
			out = append(out, diag(p, c.Name(), call,
				"dnsmsg.GetMsg result is discarded — the message can never be returned to the pool"))
		},
		onExit: func(st flowState, how string, line int, loopTags map[*Tag]bool) {
			type held struct {
				name string
				tag  *Tag
			}
			var hs []held
			for obj, tag := range st {
				// A continue leaks only what the current iteration
				// acquired, not messages already held at loop entry.
				if loopTags != nil && loopTags[tag] {
					continue
				}
				hs = append(hs, held{obj.Name(), tag})
			}
			sort.Slice(hs, func(i, j int) bool { return hs[i].name < hs[j].name })
			for _, h := range hs {
				if reported[h.tag.Origin] {
					continue
				}
				reported[h.tag.Origin] = true
				out = append(out, diag(p, c.Name(), h.tag.Origin,
					"dnsmsg.GetMsg result %s is not returned to the pool on the %s at line %d; PutMsg on every exit path (or //ldp:nolint poolreturn with the ownership story)",
					h.name, how, line))
			}
		},
	}
	fa.analyze()
	return out
}

// releaseIn clears any held message that a PutMsg call anywhere inside
// node — including inside nested function literals — names directly.
// Release is by tag, so every alias of the released message clears
// together.
func (c PoolReturn) releaseIn(p *Package, st flowState, node ast.Node) {
	ast.Inspect(node, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || !c.isPoolCall(p, call, "PutMsg") {
			return true
		}
		for _, a := range call.Args {
			if id, ok := ast.Unparen(a).(*ast.Ident); ok {
				if obj := objFor(p, id); obj != nil {
					if t := st[obj]; t != nil {
						st.dropTag(t)
					}
				}
			}
		}
		return true
	})
}
