package lint

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
)

// The loader turns a directory tree into type-checked packages using
// nothing but the standard library: go/parser for syntax, go/types for
// semantics, and the "source" importer for out-of-module dependencies
// (which, for this repository, means the standard library only).
// In-module packages are resolved against each other so cross-package
// facts (call edges, lock identities) hold object identity across the
// whole program.

// Package is one loaded, type-checked package.
type Package struct {
	// Path is the package's import path ("rai/internal/core").
	Path string
	// Dir is the directory the files were read from.
	Dir string
	// Files are the parsed non-test sources, ordered by file name.
	Files []*ast.File
	// Types and Info carry go/types results for Files.
	Types *types.Package
	Info  *types.Info
}

// IsMain reports whether the package is a command ("package main").
func (p *Package) IsMain() bool { return p.Types != nil && p.Types.Name() == "main" }

// Program is a set of packages loaded together, plus program-wide facts
// the checks consult.
type Program struct {
	Fset     *token.FileSet
	Packages []*Package

	// ipa caches the interprocedural analysis (call graph, summaries,
	// lock graph); built lazily by IPA() and shared by every check.
	ipaOnce sync.Once
	ipa     *Analysis
}

// Loader loads and type-checks packages. The zero value is not usable;
// call NewLoader.
type Loader struct {
	fset    *token.FileSet
	std     types.Importer
	parsed  map[string]*pkgSrc // import path -> parsed-but-unchecked
	checked map[string]*Package
	order   []string // load order of import paths
	tests   bool     // also load _test.go files
}

// IncludeTests makes subsequent loads parse _test.go files as well:
// in-package test files join their package, and external (package
// foo_test) files become their own unit named "<path> [tests]".
// Checks that are not test-appropriate skip test files themselves.
func (l *Loader) IncludeTests() *Loader {
	l.tests = true
	return l
}

type pkgSrc struct {
	dir   string
	files []*ast.File
}

// NewLoader returns an empty loader. The "source" importer serves
// standard-library imports by type-checking their sources under GOROOT,
// so no compiled export data is required.
func NewLoader() *Loader {
	fset := token.NewFileSet()
	return &Loader{
		fset:    fset,
		std:     importer.ForCompiler(fset, "source", nil),
		parsed:  map[string]*pkgSrc{},
		checked: map[string]*Package{},
	}
}

// LoadTree walks root, parses every non-test package outside testdata,
// hidden directories and nested modules (a directory below root with
// its own go.mod is another program, with its own import paths), and
// type-checks the lot. modPath is the module
// path that maps root to import paths (root/foo/bar -> modPath/foo/bar).
func (l *Loader) LoadTree(root, modPath string) (*Program, error) {
	root, err := filepath.Abs(root)
	if err != nil {
		return nil, err
	}
	var dirs []string
	seen := map[string]bool{}
	err = filepath.WalkDir(root, func(p string, d os.DirEntry, walkErr error) error {
		if walkErr != nil {
			return walkErr
		}
		if d.IsDir() {
			name := d.Name()
			if name == "testdata" || (strings.HasPrefix(name, ".") && p != root) || name == "vendor" {
				return filepath.SkipDir
			}
			if p != root {
				if _, err := os.Stat(filepath.Join(p, "go.mod")); err == nil {
					return filepath.SkipDir
				}
			}
			return nil
		}
		if strings.HasSuffix(p, ".go") && (l.tests || !strings.HasSuffix(p, "_test.go")) {
			dir := filepath.Dir(p)
			if !seen[dir] {
				seen[dir] = true
				dirs = append(dirs, dir)
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Strings(dirs)
	for _, dir := range dirs {
		rel, err := filepath.Rel(root, dir)
		if err != nil {
			return nil, err
		}
		ip := modPath
		if rel != "." {
			ip = modPath + "/" + filepath.ToSlash(rel)
		}
		if err := l.parseDir(dir, ip); err != nil {
			return nil, err
		}
	}
	return l.check()
}

// LoadDirs parses and checks an explicit set of directories, naming each
// package with the given import paths (parallel slices). Used by the
// golden-file tests to load testdata packages the tree walk skips.
func (l *Loader) LoadDirs(dirs, importPaths []string) (*Program, error) {
	for i, dir := range dirs {
		if err := l.parseDir(dir, importPaths[i]); err != nil {
			return nil, err
		}
	}
	return l.check()
}

func (l *Loader) parseDir(dir, importPath string) error {
	if _, ok := l.parsed[importPath]; ok {
		return nil
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		return err
	}
	src := &pkgSrc{dir: dir}
	var extern []*ast.File // external test package (package foo_test)
	for _, e := range ents {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") {
			continue
		}
		isTest := strings.HasSuffix(name, "_test.go")
		if isTest && !l.tests {
			continue
		}
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return fmt.Errorf("lint: parsing %s: %w", filepath.Join(dir, name), err)
		}
		if isTest && strings.HasSuffix(f.Name.Name, "_test") {
			extern = append(extern, f)
			continue
		}
		src.files = append(src.files, f)
	}
	if len(src.files) > 0 {
		l.parsed[importPath] = src
		l.order = append(l.order, importPath)
	}
	if len(extern) > 0 {
		// The external unit is ordered after its base package so the
		// base is checked (and importable) first.
		tp := importPath + " [tests]"
		l.parsed[tp] = &pkgSrc{dir: dir, files: extern}
		l.order = append(l.order, tp)
	}
	return nil
}

// check type-checks every parsed package (in dependency order, driven by
// the importer callback) and assembles the Program.
func (l *Loader) check() (*Program, error) {
	for _, ip := range l.order {
		if _, err := l.importPath(ip); err != nil {
			return nil, err
		}
	}
	prog := &Program{Fset: l.fset}
	for _, ip := range l.order {
		prog.Packages = append(prog.Packages, l.checked[ip])
	}
	return prog, nil
}

// importPath resolves one import: in-module packages are checked from
// source (recursively, via this same function), everything else is
// delegated to the standard-library source importer.
func (l *Loader) importPath(path string) (*types.Package, error) {
	if p, ok := l.checked[path]; ok {
		return p.Types, nil
	}
	src, ok := l.parsed[path]
	if !ok {
		return l.std.Import(path)
	}
	info := &types.Info{
		Uses:       map[*ast.Ident]types.Object{},
		Defs:       map[*ast.Ident]types.Object{},
		Types:      map[ast.Expr]types.TypeAndValue{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
	conf := types.Config{Importer: importerFunc(l.importPath)}
	tpkg, err := conf.Check(path, l.fset, src.files, info)
	if err != nil {
		return nil, fmt.Errorf("lint: type-checking %s: %w", path, err)
	}
	l.checked[path] = &Package{Path: path, Dir: src.dir, Files: src.files, Types: tpkg, Info: info}
	return tpkg, nil
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// ModuleRoot walks upward from dir to the enclosing go.mod and returns
// the directory and the module path declared there.
func ModuleRoot(dir string) (root, modPath string, err error) {
	dir, err = filepath.Abs(dir)
	if err != nil {
		return "", "", err
	}
	for {
		data, err := os.ReadFile(filepath.Join(dir, "go.mod"))
		if err == nil {
			for _, line := range strings.Split(string(data), "\n") {
				line = strings.TrimSpace(line)
				if rest, ok := strings.CutPrefix(line, "module "); ok {
					return dir, strings.TrimSpace(rest), nil
				}
			}
			return "", "", fmt.Errorf("lint: %s/go.mod has no module line", dir)
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", "", fmt.Errorf("lint: no go.mod found above %s", dir)
		}
		dir = parent
	}
}
