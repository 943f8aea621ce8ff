package lint

import (
	"go/ast"
	"go/types"
	"sort"
	"strings"
)

// MutexBlock is a heuristic check for the classic latency bug: holding a
// sync.Mutex/RWMutex across a call that blocks on network I/O. One slow
// peer then stalls every goroutine contending for the lock — in a replay
// engine that means schedule lag, in a server it means head-of-line
// blocking across clients. The querier hot path deliberately releases
// its result lock before transport.Conn.Send for exactly this reason.
//
// The analysis is intentionally simple (and documented as such): within
// each function body it scans statement lists in source order, tracking
// which mutex receivers are locked (x.Lock()/x.RLock() sets, matching
// Unlock clears, `defer x.Unlock()` holds to function end), and flags
// blocking calls — anything into internal/transport's I/O surface, raw
// net/tls dials, or Read/Write/Accept on net and crypto/tls types —
// made while a lock is held. Code that holds a lock across I/O by
// design (e.g. transport.Conn serializing sends per connection) carries
// an //ldp:nolint mutexblock justification.
type MutexBlock struct {
	ModulePath string
}

func (MutexBlock) Name() string { return "mutexblock" }
func (MutexBlock) Doc() string {
	return "heuristic: no sync.Mutex held across a blocking transport/net call"
}

// transportBlockingMethods are the I/O entry points of the transport
// package (methods on Endpoint/Listener/Dialer/Conn/UDPBatch/Exchanger
// and the package funcs) that can block on the network.
var transportBlockingMethods = map[string]bool{
	"Send": true, "Recv": true, "RecvPooled": true, "Accept": true,
	"Exchange": true, "ExchangeInto": true, "ReadBatch": true, "WriteBatch": true,
	"Dial": true, "DialContext": true, "Serve": true,
}

// netBlockingMethods block when the receiver is a net / crypto/tls type.
var netBlockingMethods = map[string]bool{
	"Read": true, "Write": true, "ReadFrom": true, "WriteTo": true,
	"ReadFromUDP": true, "WriteToUDP": true, "ReadMsgUDP": true, "WriteMsgUDP": true,
	"Accept": true, "AcceptTCP": true, "Handshake": true, "HandshakeContext": true,
}

func (c MutexBlock) isBlocking(fn *types.Func) bool {
	pkg := fn.Pkg()
	if pkg == nil {
		return false
	}
	sig, _ := fn.Type().(*types.Signature)
	isMethod := sig != nil && sig.Recv() != nil
	switch pkg.Path() {
	case c.ModulePath + "/internal/transport":
		return transportBlockingMethods[fn.Name()]
	case "net", "crypto/tls":
		if !isMethod {
			return strings.HasPrefix(fn.Name(), "Dial") || strings.HasPrefix(fn.Name(), "Listen")
		}
		return netBlockingMethods[fn.Name()]
	}
	return false
}

// mutexCall classifies a call as Lock/RLock (+1), Unlock/RUnlock (-1) on
// a sync mutex, returning the receiver expression's identity key.
func mutexCall(p *Package, call *ast.CallExpr) (key string, delta int) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return "", 0
	}
	fn, ok := p.Info.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return "", 0
	}
	switch fn.Name() {
	case "Lock", "RLock":
		delta = 1
	case "Unlock", "RUnlock":
		delta = -1
	default:
		return "", 0
	}
	return exprString(p, sel.X), delta
}

func (c MutexBlock) Check(p *Package) []Diagnostic {
	var out []Diagnostic
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch fd := n.(type) {
			case *ast.FuncDecl:
				if fd.Body != nil {
					c.scanList(p, fd.Body.List, map[string]bool{}, &out)
				}
				return false // scanList descends itself
			case *ast.FuncLit:
				// Reached only when not nested under a scanned FuncDecl
				// (e.g. package-level var initialisers).
				c.scanList(p, fd.Body.List, map[string]bool{}, &out)
				return false
			}
			return true
		})
	}
	return out
}

// scanList walks one statement list in source order, maintaining the set
// of held mutexes, and returns the state at the end of the list. A
// branch that terminates (return/break/continue/panic) does not affect
// the fall-through state — `if closed { mu.Unlock(); return }` leaves
// the mutex held on the path that continues. A non-terminating branch
// merges conservatively: a mutex counts as held afterwards only if every
// surviving path holds it.
func (c *MutexBlock) scanList(p *Package, stmts []ast.Stmt, locked map[string]bool, out *[]Diagnostic) map[string]bool {
	branch := func(list []ast.Stmt) map[string]bool {
		return c.scanList(p, list, copyLocked(locked), out)
	}
	for _, s := range stmts {
		switch s := s.(type) {
		case *ast.ExprStmt:
			if call, ok := s.X.(*ast.CallExpr); ok {
				if key, delta := mutexCall(p, call); delta != 0 {
					if delta > 0 {
						locked[key] = true
					} else {
						delete(locked, key)
					}
					continue
				}
			}
			if len(locked) > 0 {
				c.findBlocking(p, s, locked, out)
			}
		case *ast.DeferStmt:
			if key, delta := mutexCall(p, s.Call); delta < 0 {
				locked[key] = true // deferred Unlock: held for the rest of the function
				continue
			}
		case *ast.GoStmt:
			// The spawned goroutine does not block this one.
		case *ast.BlockStmt:
			locked = c.scanList(p, s.List, locked, out)
		case *ast.IfStmt:
			if s.Init != nil && len(locked) > 0 {
				c.findBlocking(p, s.Init, locked, out)
			}
			body := branch(s.Body.List)
			if !terminates(s.Body.List) {
				locked = intersectLocked(locked, body)
			}
			if s.Else != nil {
				var elseEnd map[string]bool
				var elseTerm bool
				switch e := s.Else.(type) {
				case *ast.BlockStmt:
					elseEnd, elseTerm = branch(e.List), terminates(e.List)
				case *ast.IfStmt:
					elseEnd, elseTerm = branch([]ast.Stmt{e}), false
				}
				if elseEnd != nil && !elseTerm {
					locked = intersectLocked(locked, elseEnd)
				}
			}
		case *ast.ForStmt:
			branch(s.Body.List)
		case *ast.RangeStmt:
			branch(s.Body.List)
		case *ast.SwitchStmt, *ast.TypeSwitchStmt:
			var body *ast.BlockStmt
			if sw, ok := s.(*ast.SwitchStmt); ok {
				body = sw.Body
			} else {
				body = s.(*ast.TypeSwitchStmt).Body
			}
			for _, cl := range body.List {
				if cc, ok := cl.(*ast.CaseClause); ok {
					branch(cc.Body)
				}
			}
		case *ast.SelectStmt:
			for _, cl := range s.Body.List {
				if cc, ok := cl.(*ast.CommClause); ok {
					branch(cc.Body)
				}
			}
		default:
			if len(locked) > 0 {
				c.findBlocking(p, s, locked, out)
			}
		}
	}
	return locked
}

// terminates reports whether a statement list always transfers control
// away at its end (return, branch, or panic).
func terminates(stmts []ast.Stmt) bool {
	if len(stmts) == 0 {
		return false
	}
	switch s := stmts[len(stmts)-1].(type) {
	case *ast.ReturnStmt, *ast.BranchStmt:
		return true
	case *ast.ExprStmt:
		if call, ok := s.X.(*ast.CallExpr); ok {
			if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok && id.Name == "panic" {
				return true
			}
		}
	}
	return false
}

// findBlocking reports blocking calls anywhere inside stmt while locked.
// Closure bodies are skipped: they run later, under their own locking
// discipline.
func (c *MutexBlock) findBlocking(p *Package, stmt ast.Node, locked map[string]bool, out *[]Diagnostic) {
	ast.Inspect(stmt, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		fn := calleeOf(p, call)
		if fn == nil || !c.isBlocking(fn) {
			return true
		}
		held := make([]string, 0, len(locked))
		for k := range locked {
			held = append(held, k)
		}
		sort.Strings(held)
		*out = append(*out, diag(p, c.Name(), call,
			"%s may block on I/O while %s is held; release the lock first "+
				"(or //ldp:nolint mutexblock with why serialization is intended)",
			fn.FullName(), strings.Join(held, ", ")))
		return true
	})
}

func copyLocked(m map[string]bool) map[string]bool {
	out := make(map[string]bool, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}

// intersectLocked keeps only the mutexes held in both states.
func intersectLocked(a, b map[string]bool) map[string]bool {
	out := make(map[string]bool, len(a))
	for k := range a {
		if b[k] {
			out[k] = true
		}
	}
	return out
}
