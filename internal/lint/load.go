package lint

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
)

// Package is one type-checked package ready for checking.
type Package struct {
	ImportPath string
	Dir        string
	Fset       *token.FileSet
	Files      []*ast.File
	Types      *types.Package
	Info       *types.Info
	// Nolint maps filename -> line -> suppressed check names.
	Nolint map[string]nolintSet
}

// pkgMeta is the subset of `go list -json` output the loader consumes.
type pkgMeta struct {
	ImportPath string
	Dir        string
	GoFiles    []string
	Export     string
	Standard   bool
	Module     *struct{ Path, Dir string }
	Error      *struct{ Err string }
}

// Loader resolves and type-checks the module's packages. One `go list
// -deps -export` run supplies compiler export data for the whole
// dependency graph (stdlib included), so each package's *source* is
// type-checked against its dependencies' *export data* — no build order
// bookkeeping, and exactly what the compiler itself saw.
type Loader struct {
	Fset       *token.FileSet
	ModulePath string
	// ModuleDir is the module root on disk, the base SARIF output uses
	// to relativize diagnostic file paths.
	ModuleDir string

	exports map[string]string // import path -> export data file
	metas   []pkgMeta         // module packages, go list order
	imp     types.Importer
}

// NewLoader lists the module rooted at (or containing) dir. The go tool
// must be on PATH; the tree must compile, since lint checks are defined
// on well-typed code only.
func NewLoader(dir string) (*Loader, error) {
	cmd := exec.Command("go", "list", "-deps", "-export",
		"-json=ImportPath,Export,Dir,GoFiles,Standard,Module,Error", "./...")
	cmd.Dir = dir
	var stdout, stderr bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("lint: go list: %v\n%s", err, stderr.String())
	}

	l := &Loader{
		Fset:    token.NewFileSet(),
		exports: make(map[string]string),
	}
	dec := json.NewDecoder(&stdout)
	for {
		var m pkgMeta
		if err := dec.Decode(&m); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("lint: decoding go list output: %v", err)
		}
		if m.Error != nil {
			return nil, fmt.Errorf("lint: %s: %s", m.ImportPath, m.Error.Err)
		}
		if m.Export != "" {
			l.exports[m.ImportPath] = m.Export
		}
		if !m.Standard && m.Module != nil {
			if l.ModulePath == "" {
				l.ModulePath = m.Module.Path
				l.ModuleDir = m.Module.Dir
			}
			l.metas = append(l.metas, m)
		}
	}
	if l.ModulePath == "" {
		return nil, fmt.Errorf("lint: no module packages found under %s", dir)
	}
	l.imp = importer.ForCompiler(l.Fset, "gc", func(path string) (io.ReadCloser, error) {
		file, ok := l.exports[path]
		if !ok {
			return nil, fmt.Errorf("lint: no export data for %q", path)
		}
		return os.Open(file)
	})
	return l, nil
}

// Load parses and type-checks every package in the module, in go list
// (dependency) order. Each package checks against its imports' export
// data, never another package's source.
func (l *Loader) Load() ([]*Package, error) {
	pkgs := make([]*Package, len(l.metas))
	for i, m := range l.metas {
		files := make([]string, len(m.GoFiles))
		for j, f := range m.GoFiles {
			files[j] = filepath.Join(m.Dir, f)
		}
		p, err := l.checkFiles(m.ImportPath, m.Dir, files)
		if err != nil {
			return nil, err
		}
		pkgs[i] = p
	}
	return pkgs, nil
}

// CheckDir parses and type-checks the non-test .go files in dir as a
// package with the given import path. Golden-file tests use this to
// type-check testdata packages (which go list never sees) under a
// pretend import path that puts them in a checker's scope.
func (l *Loader) CheckDir(dir, importPath string) (*Package, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []string
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		files = append(files, filepath.Join(dir, name))
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("lint: no .go files in %s", dir)
	}
	return l.checkFiles(importPath, dir, files)
}

func (l *Loader) checkFiles(importPath, dir string, filenames []string) (*Package, error) {
	p := &Package{
		ImportPath: importPath,
		Dir:        dir,
		Fset:       l.Fset,
		Nolint:     make(map[string]nolintSet),
	}
	for _, fn := range filenames {
		f, err := parser.ParseFile(l.Fset, fn, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, fmt.Errorf("lint: %v", err)
		}
		p.Files = append(p.Files, f)
		p.Nolint[fn] = collectNolint(l.Fset, f)
	}
	p.Info = &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Uses:       make(map[*ast.Ident]types.Object),
		Defs:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}
	conf := types.Config{Importer: l.imp}
	tpkg, err := conf.Check(importPath, l.Fset, p.Files, p.Info)
	if err != nil {
		return nil, fmt.Errorf("lint: type-checking %s: %v", importPath, err)
	}
	p.Types = tpkg
	return p, nil
}
