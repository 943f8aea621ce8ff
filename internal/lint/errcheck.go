package lint

import (
	"go/ast"
	"go/types"
)

// ErrCheck flags silently discarded errors: a call whose error result is
// dropped on the floor — either a bare expression statement or an
// explicit `_` assignment. A parser that shrugs off a write error or a
// replay engine that ignores a send failure corrupts an experiment
// without a trace in the output; every discard must either handle the
// error or carry an //ldp:nolint errcheck justification.
//
// Deliberate, documented exemptions (these never fail, or failure is
// meaningless): fmt printing to stdout/stderr or to in-memory buffers,
// writes to bytes.Buffer/strings.Builder, writes into a hash.Hash or
// a maphash.Hash (documented never to error), `defer x.Close()`-style
// deferred cleanup, and `go f()` statements (the error has nowhere to
// go; a goroutine that must report errors uses a channel).
type ErrCheck struct {
	ModulePath string
}

func (ErrCheck) Name() string { return "errcheck" }
func (ErrCheck) Doc() string {
	return "no discarded error returns (bare calls or _ =) outside tests without justification"
}

// errCheckExemptFuncs are callees whose errors may be dropped anywhere.
var errCheckExemptFuncs = map[string]bool{
	"fmt.Print":   true,
	"fmt.Printf":  true,
	"fmt.Println": true,

	"(*bytes.Buffer).Write":          true,
	"(*bytes.Buffer).WriteString":    true,
	"(*bytes.Buffer).WriteByte":      true,
	"(*bytes.Buffer).WriteRune":      true,
	"(*strings.Builder).Write":       true,
	"(*strings.Builder).WriteString": true,
	"(*strings.Builder).WriteByte":   true,
	"(*strings.Builder).WriteRune":   true,

	"(*hash/maphash.Hash).Write":       true,
	"(*hash/maphash.Hash).WriteString": true,
	"(*hash/maphash.Hash).WriteByte":   true,
}

// errCheckFprintFuncs get a pass when their writer is stdout/stderr or
// an in-memory buffer.
var errCheckFprintFuncs = map[string]bool{
	"fmt.Fprint":   true,
	"fmt.Fprintf":  true,
	"fmt.Fprintln": true,
}

// isHashWriter reports whether t is one of the hash package's interface
// types (hash.Hash and its 32/64-bit refinements), whose Write is
// documented to never return an error.
func isHashWriter(t types.Type) bool {
	return isNamedType(t, "hash", "Hash") ||
		isNamedType(t, "hash", "Hash32") || isNamedType(t, "hash", "Hash64")
}

func (c ErrCheck) exempt(p *Package, call *ast.CallExpr) bool {
	fn := calleeOf(p, call)
	if fn == nil {
		return false
	}
	full := fn.FullName()
	if errCheckExemptFuncs[full] {
		return true
	}
	// h.Write(...) / h.WriteString(...) where h is a hash.Hash: the
	// static callee is (io.Writer).Write, so key off the receiver type.
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		if tv, ok := p.Info.Types[sel.X]; ok && isHashWriter(tv.Type) {
			return true
		}
	}
	// io.WriteString(h, s) with a hash.Hash destination.
	if full == "io.WriteString" && len(call.Args) > 0 {
		if tv, ok := p.Info.Types[ast.Unparen(call.Args[0])]; ok && isHashWriter(tv.Type) {
			return true
		}
	}
	if errCheckFprintFuncs[full] && len(call.Args) > 0 {
		w := ast.Unparen(call.Args[0])
		if sel, ok := w.(*ast.SelectorExpr); ok {
			if v, ok := p.Info.Uses[sel.Sel].(*types.Var); ok && v.Pkg() != nil &&
				v.Pkg().Path() == "os" && (v.Name() == "Stdout" || v.Name() == "Stderr") {
				return true
			}
		}
		if tv, ok := p.Info.Types[w]; ok {
			if isNamedType(tv.Type, "bytes", "Buffer") || isNamedType(tv.Type, "strings", "Builder") {
				return true
			}
		}
	}
	return false
}

// callErrorPositions returns the indices of error-typed results of call,
// given its (possibly tuple) result type.
func callErrorPositions(p *Package, call *ast.CallExpr) []int {
	tv, ok := p.Info.Types[call]
	if !ok || tv.Type == nil {
		return nil
	}
	switch t := tv.Type.(type) {
	case *types.Tuple:
		var idx []int
		for i := 0; i < t.Len(); i++ {
			if isErrorType(t.At(i).Type()) {
				idx = append(idx, i)
			}
		}
		return idx
	default:
		if isErrorType(tv.Type) {
			return []int{0}
		}
	}
	return nil
}

func isBlank(e ast.Expr) bool {
	id, ok := e.(*ast.Ident)
	return ok && id.Name == "_"
}

func (c ErrCheck) Check(p *Package) []Diagnostic {
	var out []Diagnostic
	report := func(call *ast.CallExpr, how string) {
		what := "call"
		if fn := calleeOf(p, call); fn != nil {
			what = fn.FullName()
		}
		out = append(out, diag(p, c.Name(), call,
			"%s result of %s discarded %s; handle it or add //ldp:nolint errcheck with a justification",
			"error", what, how))
	}
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			// Note: `defer x.Close()` and `go f()` are DeferStmt/GoStmt
			// nodes, not ExprStmt, so deferred cleanup and fire-and-forget
			// goroutines are exempt by construction (their closure bodies
			// are still walked).
			case *ast.ExprStmt:
				call, ok := n.X.(*ast.CallExpr)
				if !ok {
					return true
				}
				if len(callErrorPositions(p, call)) > 0 && !c.exempt(p, call) {
					report(call, "by a bare call")
				}
				return true
			case *ast.AssignStmt:
				c.checkAssign(p, n, report)
				return true
			}
			return true
		})
	}
	return out
}

func (c ErrCheck) checkAssign(p *Package, n *ast.AssignStmt, report func(*ast.CallExpr, string)) {
	if len(n.Rhs) == 1 && len(n.Lhs) > 1 {
		// a, _ := f() — one call, tuple destructured.
		call, ok := ast.Unparen(n.Rhs[0]).(*ast.CallExpr)
		if !ok || c.exempt(p, call) {
			return
		}
		for _, i := range callErrorPositions(p, call) {
			if i < len(n.Lhs) && isBlank(n.Lhs[i]) {
				report(call, "with _")
			}
		}
		return
	}
	for i, rhs := range n.Rhs {
		if i >= len(n.Lhs) || !isBlank(n.Lhs[i]) {
			continue
		}
		call, ok := ast.Unparen(rhs).(*ast.CallExpr)
		if !ok || c.exempt(p, call) {
			continue
		}
		if idx := callErrorPositions(p, call); len(idx) == 1 && idx[0] == 0 {
			if tv, ok := p.Info.Types[call]; ok {
				if _, isTuple := tv.Type.(*types.Tuple); !isTuple {
					report(call, "with _")
				}
			}
		}
	}
}
