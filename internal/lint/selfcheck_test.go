package lint

import (
	"path/filepath"
	"testing"
)

// TestRepositoryIsClean is the self-check: raivet run over this module
// must report nothing. It is the test-suite twin of the verify.sh gate,
// so a change that reintroduces a wall-clock read or a fresh
// context.Background in library code fails `go test` too, not just the
// release script.
func TestRepositoryIsClean(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and type-checks the whole module")
	}
	prog, root, err := loadSelf()
	if err != nil {
		t.Fatal(err)
	}
	diags := Run(prog, Checks())
	for _, d := range diags {
		if rel, err := filepath.Rel(root, d.File); err == nil {
			d.File = rel
		}
		t.Errorf("%s", d.String())
	}
	if len(diags) > 0 {
		t.Fatalf("raivet found %d issue(s) in the repository; fix them or add a justified //lint:ignore", len(diags))
	}
}

// TestEveryCommandHasTests: each package main in the module ships a
// _test.go beside it, so a command that only `go build` exercises
// cannot join the tree.
func TestEveryCommandHasTests(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and type-checks the whole module")
	}
	prog, root, err := loadSelf()
	if err != nil {
		t.Fatal(err)
	}
	for _, pkg := range prog.Packages {
		if !pkg.IsMain() {
			continue
		}
		tests, err := filepath.Glob(filepath.Join(pkg.Dir, "*_test.go"))
		if err != nil {
			t.Fatal(err)
		}
		if len(tests) == 0 {
			rel, _ := filepath.Rel(root, pkg.Dir)
			t.Errorf("package main in %s has no _test.go", rel)
		}
	}
}
