package ldplayer

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"ldplayer/internal/obs"
)

// rawSocketAllowed lists the sites outside internal/transport that may
// name a socket-opening net/tls identifier, keyed by file and
// identifier, each with the reason it is not DNS traffic through the
// transport layer.
var rawSocketAllowed = map[string]string{
	"internal/obs/http.go net.Listen":           "the -debug-addr HTTP endpoint serves humans, not DNS",
	"cmd/ldp-replay/main.go net.Listen":         "control-plane socket: distributors stream trace events to the controller, no DNS traffic",
	"internal/replay/remote.go net.Dial":        "control-plane stream from the controller: trace events, not DNS traffic",
	"cmd/ldp-dig/main.go net.DialTimeout":       "AXFR reads the raw TCP byte stream FetchAXFR consumes, not a framed transport.Endpoint",
	"cmd/ldp-dig/main.go net.Dialer":            "sets the timeout of a transport.NetDialer, which does the dialing",
	"internal/server/listen.go tls.NewListener": "wraps a listener the caller opened; framing still goes through transport.NewStreamListener",
}

// dynamicSeriesAllowed lists the series families whose names are a
// literal prefix plus a computed suffix, each bounded by the wire's
// mnemonic set. bench/run.go matches replay.rcode. + Rcode.String().
var dynamicSeriesAllowed = map[string]string{
	"server.rcode.": "16 rcodes, each series cached after first use",
	"server.qtype.": "qtypes seen in traffic, each series cached after first use",
	"replay.rcode.": "16 rcodes, each series cached after first use",
}

// TestSourceInvariants walks the module's non-test Go files (bench/ is
// a module of its own) and holds two rules no type can express:
//
//   - every socket is opened by internal/transport: outside it, no call
//     or mention of net.Dial*, net.Listen* (but net.Listener),
//     net.FileListener, net.FilePacketConn, tls.Dial*, tls.Listen or
//     tls.NewListener, except the sites in rawSocketAllowed;
//   - every obs series name is a literal the registry accepts, or an
//     allowed family prefix plus a suffix.
//
// An allow-list entry that matches nothing fails too, so the lists
// cannot outlive the code they excuse.
func TestSourceInvariants(t *testing.T) {
	usedSocket := map[string]bool{}
	usedFamily := map[string]bool{}
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path == "bench" || d.Name() == "testdata" || (path != "." && strings.HasPrefix(d.Name(), ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		path = filepath.ToSlash(path)
		for _, v := range rawSocketsOutsideTransport(path, f) {
			key := path + " " + v.name
			if _, ok := rawSocketAllowed[key]; ok {
				usedSocket[key] = true
				continue
			}
			t.Errorf("%s: %s opens a raw socket outside internal/transport; use a transport Dialer or Listener, or add a justified rawSocketAllowed entry", fset.Position(v.pos), v.name)
		}
		if strings.HasPrefix(path, "internal/obs/") {
			return nil
		}
		for _, s := range seriesNames(f) {
			switch {
			case s.family != "":
				if _, ok := dynamicSeriesAllowed[s.family]; ok {
					usedFamily[s.family] = true
				} else {
					t.Errorf("%s: series family %q+... is not in dynamicSeriesAllowed; name every series literally", fset.Position(s.pos), s.family)
				}
			case !s.literal:
				t.Errorf("%s: series name is not a string literal; name every series literally", fset.Position(s.pos))
			default:
				if err := registers(s.name); err != nil {
					t.Errorf("%s: %v", fset.Position(s.pos), err)
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for key := range rawSocketAllowed {
		if !usedSocket[key] {
			t.Errorf("rawSocketAllowed entry %q matches nothing; delete it", key)
		}
	}
	for family := range dynamicSeriesAllowed {
		if !usedFamily[family] {
			t.Errorf("dynamicSeriesAllowed entry %q matches nothing; delete it", family)
		}
	}
}

type sourceSite struct {
	pos  token.Pos
	name string
}

// rawSocketsOutsideTransport returns the raw-socket sites of the file
// at path (slash-separated, relative to the module root). The files of
// internal/transport open sockets by design and have none.
func rawSocketsOutsideTransport(path string, f *ast.File) []sourceSite {
	if strings.HasPrefix(path, "internal/transport/") {
		return nil
	}
	return rawSockets(f)
}

// rawSockets returns every mention of a socket-opening identifier of
// net or crypto/tls in f, under whatever names f imports them.
func rawSockets(f *ast.File) []sourceSite {
	local := map[string]string{} // local import name -> "net" | "tls"
	for _, imp := range f.Imports {
		path, _ := strconv.Unquote(imp.Path.Value)
		short := map[string]string{"net": "net", "crypto/tls": "tls"}[path]
		if short == "" {
			continue
		}
		name := short
		if imp.Name != nil {
			name = imp.Name.Name
		}
		local[name] = short
	}
	var out []sourceSite
	ast.Inspect(f, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		x, ok := sel.X.(*ast.Ident)
		if !ok || local[x.Name] == "" {
			return true
		}
		id := sel.Sel.Name
		var banned bool
		switch local[x.Name] {
		case "net":
			banned = strings.HasPrefix(id, "Dial") || (strings.HasPrefix(id, "Listen") && id != "Listener") ||
				id == "FileListener" || id == "FilePacketConn"
		case "tls":
			banned = strings.HasPrefix(id, "Dial") || id == "Listen" || id == "NewListener"
		}
		if banned {
			out = append(out, sourceSite{sel.Pos(), local[x.Name] + "." + id})
		}
		return true
	})
	return out
}

type seriesSite struct {
	pos     token.Pos
	literal bool   // the name is one string literal
	name    string // its value, when literal
	family  string // the literal prefix of a "prefix" + suffix name
}

// seriesNames returns the name argument of every obs registry getter
// call in f: any method call named like one whose first argument is a
// name.
func seriesNames(f *ast.File) []seriesSite {
	getters := map[string]bool{"Counter": true, "CounterFunc": true, "Gauge": true, "Histogram": true, "ShardedCounter": true}
	var out []seriesSite
	ast.Inspect(f, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || len(call.Args) == 0 {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok || !getters[sel.Sel.Name] {
			return true
		}
		s := seriesSite{pos: call.Args[0].Pos()}
		switch arg := call.Args[0].(type) {
		case *ast.BasicLit:
			if arg.Kind == token.STRING {
				s.literal = true
				s.name, _ = strconv.Unquote(arg.Value)
			}
		case *ast.BinaryExpr:
			if lit, ok := arg.X.(*ast.BasicLit); ok && arg.Op == token.ADD && lit.Kind == token.STRING {
				s.family, _ = strconv.Unquote(lit.Value)
			}
		}
		out = append(out, s)
		return true
	})
	return out
}

// registers reports whether a fresh registry accepts name.
func registers(name string) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("%v", r)
		}
	}()
	obs.NewRegistry().Counter(name)
	return nil
}

// rawSocketNames parses src as the file at path and returns the names
// the raw-socket rule flags in it, in source order.
func rawSocketNames(t *testing.T, path, src string) []string {
	t.Helper()
	f, err := parser.ParseFile(token.NewFileSet(), path, src, parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, v := range rawSocketsOutsideTransport(path, f) {
		names = append(names, v.name)
	}
	return names
}

// TestRawSocketRule checks the raw-socket rule of TestSourceInvariants
// on a fixture: dials and listens of net and crypto/tls are flagged
// under any import name, net.Dialer is flagged as a dialer, and net
// helpers that open nothing (net.JoinHostPort, net.Listener) are not.
func TestRawSocketRule(t *testing.T) {
	const src = `package replaytest

import (
	"context"
	"crypto/tls"
	"net"
	stdnet "net"
)

func dials() error {
	c, _ := net.Dial("tcp", "127.0.0.1:53")
	defer c.Close()
	var ln net.Listener
	ln, _ = net.Listen("tcp", ":0")
	defer ln.Close()
	tc, _ := tls.Dial("tcp", "example.com:853", nil)
	defer tc.Close()
	var d net.Dialer
	cc, _ := d.DialContext(context.Background(), "udp", "127.0.0.1:53")
	pc, _ := stdnet.ListenPacket("udp", ":0")
	defer pc.Close()
	return cc.Close()
}

func helpersAreFine(host, port string) string {
	return net.JoinHostPort(host, port)
}
`
	got := strings.Join(rawSocketNames(t, "internal/replaytest/replaytest.go", src), " ")
	want := "net.Dial net.Listen tls.Dial net.Dialer net.ListenPacket"
	if got != want {
		t.Errorf("flagged %q, want %q", got, want)
	}
}

// TestRawSocketRuleExemptsTransport checks that the raw-socket rule
// skips internal/transport, the one package where raw socket calls are
// the point, and that the same file anywhere else is flagged.
func TestRawSocketRuleExemptsTransport(t *testing.T) {
	const src = `package transport

import "net"

func dialRaw(addr string) (net.Conn, error) {
	return net.Dial("udp", addr)
}

func listenRaw(addr string) (net.Listener, error) {
	return net.Listen("tcp", addr)
}
`
	if got := rawSocketNames(t, "internal/transport/transport.go", src); len(got) != 0 {
		t.Errorf("internal/transport: flagged %v, want nothing", got)
	}
	if got := strings.Join(rawSocketNames(t, "internal/server/transport.go", src), " "); got != "net.Dial net.Listen" {
		t.Errorf("internal/server: flagged %q, want %q", got, "net.Dial net.Listen")
	}
}
