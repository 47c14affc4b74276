package lint

import (
	"go/token"
	"os"
	"path/filepath"
	"reflect"
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
	checks, err := Select(nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := names(checks), CheckNames(); !reflect.DeepEqual(got, want) {
		t.Fatalf("Select(nil, nil) = %v, want %v", got, want)
	}
}

func TestSelectEnable(t *testing.T) {
	checks, err := Select([]string{"clock", "span"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := names(checks); !reflect.DeepEqual(got, []string{"clock", "span"}) {
		t.Fatalf("enable clock,span = %v", got)
	}
}

func TestSelectDisableWins(t *testing.T) {
	checks, err := Select([]string{"clock", "span"}, []string{"span"})
	if err != nil {
		t.Fatal(err)
	}
	if got := names(checks); !reflect.DeepEqual(got, []string{"clock"}) {
		t.Fatalf("enable clock,span disable span = %v", got)
	}
	checks, err = Select(nil, []string{"clock"})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range checks {
		if c.Name == "clock" {
			t.Fatal("disabled check still selected")
		}
	}
	if len(checks) != len(Checks())-1 {
		t.Fatalf("disable clock kept %d of %d checks", len(checks), len(Checks()))
	}
}

func TestSelectUnknownCheck(t *testing.T) {
	if _, err := Select([]string{"nope"}, nil); err == nil {
		t.Fatal("enable nope: want error")
	}
	_, err := Select(nil, []string{"nope"})
	if err == nil {
		t.Fatal("disable nope: want error")
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
