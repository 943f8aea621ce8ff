package lint

import (
	"go/ast"
	"go/types"
)

// SimClock enforces deterministic-simulation hygiene: code that runs on
// virtual time (the netsim discrete-event scheduler, the vnet fabric)
// or behind an injected clock must never consult the wall clock or the
// global math/rand source. One stray time.Now makes a simulated run
// irreproducible; one global-source rand call couples two experiments'
// random streams.
//
// Scope, in two tiers:
//
//   - strict packages (internal/netsim, internal/vnet): every wall-clock
//     read (time.Now/Since/Until), timer (Sleep/After/AfterFunc/Tick/
//     NewTimer/NewTicker), and global-source math/rand call is flagged.
//     Seeded sources built with rand.New(rand.NewSource(seed)) are fine.
//
//   - mixed packages (internal/experiments) and any file that declares a
//     `func() time.Time` clock seam (e.g. cache.Cache.now): scheduling
//     calls (Now/Sleep/After/...) are flagged — trace timestamps and
//     cache/RRL decisions must go through the seam or a fixed base —
//     but time.Since-style measurement of live runs is allowed.
type SimClock struct {
	ModulePath string
}

func (SimClock) Name() string { return "simclock" }
func (SimClock) Doc() string {
	return "no wall clock or global rand source on simulated / clock-injected paths"
}

var simClockSchedulingFuncs = map[string]bool{
	"time.Now":       true,
	"time.Sleep":     true,
	"time.After":     true,
	"time.AfterFunc": true,
	"time.Tick":      true,
	"time.NewTimer":  true,
	"time.NewTicker": true,
}

var simClockMeasurementFuncs = map[string]bool{
	"time.Since": true,
	"time.Until": true,
}

// simClockRandConstructors are the math/rand package-level functions
// that build seeded sources rather than consuming the global one.
var simClockRandConstructors = map[string]bool{
	"New":        true,
	"NewSource":  true,
	"NewZipf":    true,
	"NewPCG":     true,
	"NewChaCha8": true,
}

func (c SimClock) strictPkgs() map[string]bool {
	return map[string]bool{
		c.ModulePath + "/internal/netsim": true,
		c.ModulePath + "/internal/vnet":   true,
	}
}

func (c SimClock) mixedPkgs() map[string]bool {
	return map[string]bool{
		c.ModulePath + "/internal/experiments": true,
	}
}

// declaresClockSeam reports whether the file declares a struct field or
// variable of type `func() time.Time` — the marker that this file's
// types take an injected clock.
func declaresClockSeam(p *Package, f *ast.File) bool {
	seam := false
	ast.Inspect(f, func(n ast.Node) bool {
		if seam {
			return false
		}
		switch n := n.(type) {
		case *ast.StructType:
			for _, field := range n.Fields.List {
				if isClockFuncType(p, field.Type) {
					seam = true
				}
			}
		case *ast.ValueSpec:
			if n.Type != nil && isClockFuncType(p, n.Type) {
				seam = true
			}
		}
		return true
	})
	return seam
}

// isGlobalRandUse reports whether fn is a package-level math/rand(/v2)
// function drawing on the process-global source.
func isGlobalRandUse(fn *types.Func) bool {
	pkg := fn.Pkg()
	if pkg == nil || (pkg.Path() != "math/rand" && pkg.Path() != "math/rand/v2") {
		return false
	}
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		return false // method on a seeded *rand.Rand / Source
	}
	return !simClockRandConstructors[fn.Name()]
}

func (c SimClock) Check(p *Package) []Diagnostic {
	strict := c.strictPkgs()[p.ImportPath]
	mixed := strict || c.mixedPkgs()[p.ImportPath]
	var out []Diagnostic
	for _, f := range p.Files {
		inScope := mixed || declaresClockSeam(p, f)
		if !inScope {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			id, ok := n.(*ast.Ident)
			if !ok {
				return true
			}
			fn, ok := p.Info.Uses[id].(*types.Func)
			if !ok {
				return true
			}
			full := fn.FullName()
			var why string
			switch {
			case simClockSchedulingFuncs[full]:
				why = full + " on a simulated/clock-injected path; use the injected clock (or a fixed trace base)"
			case strict && simClockMeasurementFuncs[full]:
				why = full + " reads the wall clock inside a virtual-time package"
			case isGlobalRandUse(fn):
				why = full + " draws on the global math/rand source; use a seeded *rand.Rand"
			default:
				return true
			}
			out = append(out, Diagnostic{
				Pos:     p.Fset.Position(id.Pos()),
				Check:   c.Name(),
				Message: why,
			})
			return true
		})
	}
	return out
}
