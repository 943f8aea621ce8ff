package lint

import (
	"bytes"
	"go/ast"
	"go/printer"
	"go/types"
)

// Shared type-resolution helpers used by the checkers.

// calleeOf resolves the *types.Func a call expression invokes, through
// selector or plain-identifier callees. Returns nil for builtins, type
// conversions, and calls through function-typed variables.
func calleeOf(p *Package, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.SelectorExpr:
		id = fun.Sel
	case *ast.Ident:
		id = fun
	default:
		return nil
	}
	fn, _ := p.Info.Uses[id].(*types.Func)
	return fn
}

// namedOf unwraps pointers and aliases down to a *types.Named, or nil.
func namedOf(t types.Type) *types.Named {
	t = types.Unalias(t)
	if ptr, ok := t.(*types.Pointer); ok {
		t = types.Unalias(ptr.Elem())
	}
	n, _ := t.(*types.Named)
	return n
}

// isNamedType reports whether t (through pointers/aliases) is the named
// type pkgPath.name.
func isNamedType(t types.Type, pkgPath, name string) bool {
	n := namedOf(t)
	if n == nil || n.Obj().Pkg() == nil {
		return false
	}
	return n.Obj().Pkg().Path() == pkgPath && n.Obj().Name() == name
}

// isClockFuncType reports whether the expression's type is
// `func() time.Time` — the project's injected-clock seam signature.
func isClockFuncType(p *Package, e ast.Expr) bool {
	tv, ok := p.Info.Types[e]
	if !ok {
		return false
	}
	sig, ok := types.Unalias(tv.Type).(*types.Signature)
	if !ok || sig.Params().Len() != 0 || sig.Results().Len() != 1 {
		return false
	}
	return isNamedType(sig.Results().At(0).Type(), "time", "Time")
}

// exprString renders a (small) expression for use in messages and as a
// mutex identity key.
func exprString(p *Package, e ast.Expr) string {
	var buf bytes.Buffer
	if err := printer.Fprint(&buf, p.Fset, e); err != nil {
		return "?"
	}
	return buf.String()
}

var errorType = types.Universe.Lookup("error").Type()

// isErrorType reports whether t is the predeclared error interface.
func isErrorType(t types.Type) bool {
	return t != nil && types.Identical(t, errorType)
}
