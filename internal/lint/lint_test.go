package lint

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"
)

func names(checks []*Check) []string {
	var out []string
	for _, c := range checks {
		out = append(out, c.Name)
	}
	return out
}

func TestSelectDefaultsToAll(t *testing.T) {
	checks, err := Select(nil)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := names(checks), CheckNames(); !reflect.DeepEqual(got, want) {
		t.Fatalf("Select(nil) = %v, want %v", got, want)
	}
}

func TestSelectEnable(t *testing.T) {
	checks, err := Select([]string{"clock", "span"})
	if err != nil {
		t.Fatal(err)
	}
	if got := names(checks); !reflect.DeepEqual(got, []string{"clock", "span"}) {
		t.Fatalf("enable clock,span = %v", got)
	}
}

func TestSelectUnknownCheck(t *testing.T) {
	_, err := Select([]string{"clock", "nope"})
	if err == nil {
		t.Fatal("enable nope: want error")
	}
	if !strings.Contains(err.Error(), "nope") {
		t.Fatalf("error %q does not name the unknown check", err)
	}
}

func TestDiagnosticString(t *testing.T) {
	d := Diagnostic{
		Check: "clock", File: "internal/auth/auth.go", Line: 42, Col: 7,
		Message: "direct time.Now",
	}
	want := "internal/auth/auth.go:42:7: [clock] direct time.Now"
	if got := d.String(); got != want {
		t.Fatalf("String() = %q, want %q", got, want)
	}
}

func TestSuppressionSet(t *testing.T) {
	s := suppressionSet{}
	s.add("f.go", 10, "clock")
	s.add("f.go", 12, "*")
	cases := []struct {
		d    Diagnostic
		want bool
	}{
		{Diagnostic{File: "f.go", Line: 10, Check: "clock"}, true},
		{Diagnostic{File: "f.go", Line: 10, Check: "span"}, false},
		{Diagnostic{File: "f.go", Line: 11, Check: "clock"}, false},
		{Diagnostic{File: "f.go", Line: 12, Check: "span"}, true},
		{Diagnostic{File: "g.go", Line: 10, Check: "clock"}, false},
	}
	for _, c := range cases {
		if got := s.covers(c.d); got != c.want {
			t.Errorf("covers(%s:%d %s) = %v, want %v", c.d.File, c.d.Line, c.d.Check, got, c.want)
		}
	}
}

func TestRunSortsDiagnostics(t *testing.T) {
	prog := &Program{Fset: token.NewFileSet()}
	check := &Check{Name: "fake", Run: func(*Program, *Package) []Diagnostic {
		return []Diagnostic{
			{Check: "fake", Pos: token.Position{Filename: "b.go", Line: 2, Column: 1}},
			{Check: "fake", Pos: token.Position{Filename: "a.go", Line: 9, Column: 3}},
			{Check: "fake", Pos: token.Position{Filename: "a.go", Line: 1, Column: 5}},
		}
	}}
	prog.Packages = []*Package{{}}
	got := Run(prog, []*Check{check})
	if len(got) != 3 {
		t.Fatalf("got %d diagnostics", len(got))
	}
	if got[0].File != "a.go" || got[0].Line != 1 || got[1].Line != 9 || got[2].File != "b.go" {
		t.Fatalf("diagnostics not sorted by position: %v", got)
	}
}

func TestModuleRoot(t *testing.T) {
	root, modPath, err := ModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	if modPath != "rai" {
		t.Fatalf("module path = %q, want rai", modPath)
	}
	if _, err := os.Stat(filepath.Join(root, "go.mod")); err != nil {
		t.Fatalf("module root %q has no go.mod: %v", root, err)
	}
	if _, _, err := ModuleRoot(t.TempDir()); err == nil {
		t.Fatal("ModuleRoot outside any module: want error")
	}
}

// TestLoadTreeSkipsNestedModule: a directory below the root with its
// own go.mod is skipped whole, like testdata and vendor. The fixture's
// nested module imports by its own module path, so loading it under the
// outer path would not even type-check.
func TestLoadTreeSkipsNestedModule(t *testing.T) {
	prog, err := NewLoader().LoadTree(filepath.Join("testdata", "nestedmod"), "nestedmod")
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, p := range prog.Packages {
		got = append(got, p.Path)
	}
	if len(got) != 1 || got[0] != "nestedmod/outer" {
		t.Fatalf("packages = %v, want [nestedmod/outer]", got)
	}
}

// TestLoadSkipsOtherPlatforms: a package's files for another platform,
// by file name or by //go:build line, are left out as go vet leaves them
// out, so per-OS definitions of one name type-check.
func TestLoadSkipsOtherPlatforms(t *testing.T) {
	dir := t.TempDir()
	for name, src := range map[string]string{
		"p.go":                      "package p\n\nvar _ = f()\n",
		"f_" + runtime.GOOS + ".go": "package p\n\nfunc f() int { return 1 }\n",
		"f_plan9.go":                "package p\n\nfunc f() int { return 2 }\n",
		"f_tagged.go":               "//go:build plan9\n\npackage p\n\nfunc f() int { return 3 }\n",
	} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := NewLoader().LoadDirs([]string{dir}, []string{"p"}); err != nil {
		t.Fatal(err)
	}
}

func TestCountIgnores(t *testing.T) {
	src := `package p

//lint:ignore clock the scheduler needs the real wall clock
var a int

//lint:ignore nope unknown check does not count
var b int

//lint:ignore span
var c int // no reason given: malformed, does not count

//lint:ignore * fixture exercises every check
var d int
`
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "p.go", src, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	prog := &Program{Fset: fset, Packages: []*Package{{Path: "p", Files: []*ast.File{f}}}}
	if got := CountIgnores(prog); got != 2 {
		t.Errorf("CountIgnores = %d, want 2 (one known check, one wildcard)", got)
	}
}
