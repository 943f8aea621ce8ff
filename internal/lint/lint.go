// Package lint is LDplayer's project-specific static-analysis
// framework: the machinery behind cmd/ldp-vet. The compiler and go vet
// check Go-level properties; this package checks the *LDplayer-level*
// invariants that no type or test holds: simulated paths never read
// the wall clock, errors are never silently dropped, mutexes are not
// held across blocking I/O, and shard state stays on its shard's
// goroutine.
//
// The framework is stdlib-only: go/parser builds the ASTs, go/types
// type-checks each package against compiler export data obtained from
// one `go list -deps -export` invocation, and checkers written against
// the Checker interface get fully typed syntax to inspect.
//
// A finding can be suppressed with a justification comment on the
// offending line or the line above:
//
//	//ldp:nolint <check>[,<check>...] — <why this is safe>
//
// A bare //ldp:nolint (no check names) suppresses every check on that
// line; naming the check is strongly preferred so unrelated regressions
// on the same line still surface.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"regexp"
	"sort"
	"strings"
)

// Diagnostic is one finding: a position, the check that produced it, and
// a human-readable message.
type Diagnostic struct {
	Pos     token.Position
	Check   string
	Message string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: [%s] %s", d.Pos, d.Check, d.Message)
}

// Checker is one architectural-invariant check. Check receives a fully
// type-checked package and returns raw findings; the framework applies
// //ldp:nolint suppression afterwards.
type Checker interface {
	// Name is the short identifier used in diagnostics and in
	// //ldp:nolint comments (lowercase, no spaces).
	Name() string
	// Doc is a one-line description for ldp-vet -list.
	Doc() string
	Check(p *Package) []Diagnostic
}

// nolintRe matches the suppression comment. Everything after the check
// list is free-form justification. Anchored to the comment start so a
// doc comment that merely *mentions* the directive mid-prose does not
// become a phantom suppression (trailing comments still match — the
// comment text itself begins with the directive).
var nolintRe = regexp.MustCompile(`^//\s*ldp:nolint\b[ \t]*([a-z0-9_,\- \t]*)`)

// nolintEntry is one //ldp:nolint comment: the checks it names (the
// empty string means "all checks"), where it sits, and whether it
// actually suppressed a finding during the last Run — the stale
// audit flags entries that did not.
type nolintEntry struct {
	names []string
	pos   token.Position
	used  bool
}

// nolintSet records the suppression comments of one file by line.
type nolintSet map[int][]*nolintEntry

// collectNolint scans a file's comments and returns line -> suppression
// entries. A suppression applies to diagnostics on its own line and on
// the line immediately below (so a standalone comment guards the
// statement it precedes).
func collectNolint(fset *token.FileSet, f *ast.File) nolintSet {
	set := nolintSet{}
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			m := nolintRe.FindStringSubmatch(c.Text)
			if m == nil {
				continue
			}
			pos := fset.Position(c.Pos())
			set[pos.Line] = append(set[pos.Line], &nolintEntry{
				names: parseNolintNames(m[1]),
				pos:   pos,
			})
		}
	}
	return set
}

func parseNolintNames(s string) []string {
	// Cut the justification: check names end at the first "—", "--" or
	// " - "; commas separate multiple names.
	for _, sep := range []string{"—", "--", " - "} {
		if i := strings.Index(s, sep); i >= 0 {
			s = s[:i]
		}
	}
	fields := strings.FieldsFunc(s, func(r rune) bool { return r == ',' || r == ' ' || r == '\t' })
	if len(fields) == 0 {
		return []string{""} // bare ldp:nolint: suppress everything
	}
	return fields
}

// suppressed reports whether a diagnostic from check at line is covered
// by the set, marking every covering entry as used for the stale audit.
func (s nolintSet) suppressed(check string, line int) bool {
	hit := false
	for _, l := range []int{line, line - 1} {
		for _, e := range s[l] {
			for _, name := range e.names {
				if name == "" || name == check {
					e.used = true
					hit = true
				}
			}
		}
	}
	return hit
}

// KnownChecks returns the registered checker names, the vocabulary a
// //ldp:nolint comment may use (the names do not depend on the module
// path).
func KnownChecks() map[string]bool {
	known := make(map[string]bool)
	for _, c := range DefaultCheckers("m") {
		known[c.Name()] = true
	}
	return known
}

// Run applies every checker to every package, filters suppressed
// findings, and returns the remainder sorted by position. It also
// validates the //ldp:nolint comments themselves: an entry naming a
// check that does not exist is reported under the check name "nolint"
// (these are typo-proofing diagnostics and cannot be suppressed). The
// validation doubles as grammar enforcement — a justification not
// separated by " — ", " -- ", or " - " parses as bogus check names and
// is flagged. With stale set, Run also reports //ldp:nolint comments
// that suppressed no finding (check name "stale"); that audit is only
// sound when every registered checker runs, since an unmatched
// suppression may belong to a checker that was skipped.
func Run(pkgs []*Package, checkers []Checker, stale bool) []Diagnostic {
	var out []Diagnostic
	for _, p := range pkgs {
		for _, c := range checkers {
			for _, d := range c.Check(p) {
				if !p.Nolint[d.Pos.Filename].suppressed(d.Check, d.Pos.Line) {
					out = append(out, d)
				}
			}
		}
	}

	known := KnownChecks()
	for _, p := range pkgs {
		for _, set := range p.Nolint {
			for _, entries := range set {
				for _, e := range entries {
					anyKnown := len(e.names) == 0
					for _, name := range e.names {
						if name == "" || known[name] {
							anyKnown = true
							continue
						}
						out = append(out, Diagnostic{
							Pos:   e.pos,
							Check: "nolint",
							Message: fmt.Sprintf("//ldp:nolint names unknown check %q (see ldp-vet -list; separate the justification with ' — ')",
								name),
						})
					}
					// An entry naming only unknown checks is already
					// reported above; a second "stale" finding for the
					// same comment would just restate it.
					if stale && !e.used && anyKnown {
						label := strings.Join(e.names, ",")
						if label != "" {
							label = " " + label
						}
						out = append(out, Diagnostic{
							Pos:   e.pos,
							Check: "stale",
							Message: fmt.Sprintf("//ldp:nolint%s suppresses nothing — the finding it silenced is gone; delete the comment",
								label),
						})
					}
				}
			}
		}
	}

	sort.Slice(out, func(i, j int) bool {
		a, b := out[i].Pos, out[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Column != b.Column {
			return a.Column < b.Column
		}
		return out[i].Check < out[j].Check
	})
	return out
}

// diag builds a Diagnostic for a node in p.
func diag(p *Package, check string, node ast.Node, format string, args ...any) Diagnostic {
	return Diagnostic{
		Pos:     p.Fset.Position(node.Pos()),
		Check:   check,
		Message: fmt.Sprintf(format, args...),
	}
}
