package lint

import (
	"path/filepath"
	"regexp"
	"testing"
)

// wantRe extracts the expectation from a `// want "pattern"` comment.
// The pattern is a regexp matched against the diagnostic message.
var wantRe = regexp.MustCompile(`//\s*want\s+"([^"]+)"`)

// want is one expectation, consumed as diagnostics match it.
type want struct {
	re      *regexp.Regexp
	matched bool
}

// collectWants scans a package's comments for `// want` annotations and
// returns file -> line -> expectations.
func collectWants(t *testing.T, p *Package) map[string]map[int][]*want {
	t.Helper()
	out := make(map[string]map[int][]*want)
	for _, f := range p.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := wantRe.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				pos := p.Fset.Position(c.Pos())
				re, err := regexp.Compile(m[1])
				if err != nil {
					t.Fatalf("%s: bad want pattern %q: %v", pos, m[1], err)
				}
				if out[pos.Filename] == nil {
					out[pos.Filename] = make(map[int][]*want)
				}
				out[pos.Filename][pos.Line] = append(out[pos.Filename][pos.Line], &want{re: re})
			}
		}
	}
	return out
}

// sharedLoader is built once: `go list -deps -export` over the module is
// the expensive step, and every golden case reuses its export data.
var sharedLoader *Loader

func loader(t *testing.T) *Loader {
	t.Helper()
	if sharedLoader == nil {
		l, err := NewLoader("../..")
		if err != nil {
			t.Fatalf("NewLoader: %v", err)
		}
		sharedLoader = l
	}
	return sharedLoader
}

func TestGolden(t *testing.T) {
	l := loader(t)
	mod := l.ModulePath
	cases := []struct {
		dir        string
		importPath string // pretend path that puts the fixture in scope
		checker    Checker
	}{
		{"simclock_strict", mod + "/internal/netsim", SimClock{ModulePath: mod}},
		{"simclock_seam", mod + "/internal/seamtest", SimClock{ModulePath: mod}},
		{"errcheck", mod + "/internal/errtest", ErrCheck{ModulePath: mod}},
		{"mutexblock", mod + "/internal/mutextest", MutexBlock{ModulePath: mod}},
		{"shardconfined", mod + "/internal/shardtest", ShardConfined{ModulePath: mod}},
	}
	for _, tc := range cases {
		t.Run(tc.dir, func(t *testing.T) {
			p, err := l.CheckDir(filepath.Join("testdata", "src", tc.dir), tc.importPath)
			if err != nil {
				t.Fatalf("CheckDir: %v", err)
			}
			got := Run([]*Package{p}, []Checker{tc.checker}, false)
			wants := collectWants(t, p)
			for _, d := range got {
				lineWants := wants[d.Pos.Filename][d.Pos.Line]
				found := false
				for _, w := range lineWants {
					if !w.matched && w.re.MatchString(d.Message) {
						w.matched = true
						found = true
						break
					}
				}
				if !found {
					t.Errorf("unexpected diagnostic: %s", d)
				}
			}
			for file, lines := range wants {
				for line, lineWants := range lines {
					for _, w := range lineWants {
						if !w.matched {
							t.Errorf("%s:%d: expected diagnostic matching %q, got none", file, line, w.re)
						}
					}
				}
			}
		})
	}
}

// TestNolintParsing pins the suppression-comment grammar: check lists,
// justification separators, and the bare form.
func TestNolintParsing(t *testing.T) {
	cases := []struct {
		in   string
		want []string
	}{
		{"errcheck — why", []string{"errcheck"}},
		{"errcheck -- why", []string{"errcheck"}},
		{"errcheck - why", []string{"errcheck"}},
		{"errcheck,simclock — why", []string{"errcheck", "simclock"}},
		{"errcheck simclock", []string{"errcheck", "simclock"}},
		{"", []string{""}},
	}
	for _, tc := range cases {
		got := parseNolintNames(tc.in)
		if len(got) != len(tc.want) {
			t.Errorf("parseNolintNames(%q) = %v, want %v", tc.in, got, tc.want)
			continue
		}
		for i := range got {
			if got[i] != tc.want[i] {
				t.Errorf("parseNolintNames(%q) = %v, want %v", tc.in, got, tc.want)
				break
			}
		}
	}
}

// TestDefaultCheckers pins the shipped checker set: each registered
// name appears once and documents itself.
func TestDefaultCheckers(t *testing.T) {
	seen := make(map[string]bool)
	for _, c := range DefaultCheckers("ldplayer") {
		name := c.Name()
		if seen[name] {
			t.Errorf("duplicate checker name %q", name)
		}
		seen[name] = true
		if c.Doc() == "" {
			t.Errorf("checker %q has no doc", name)
		}
	}
	for _, name := range []string{"simclock", "errcheck", "mutexblock", "shardconfined"} {
		if !seen[name] {
			t.Errorf("DefaultCheckers missing %q", name)
		}
	}
}
