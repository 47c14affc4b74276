package lint

import (
	"go/ast"
	"go/types"
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

// TestDaemonLifecycleWiredOnce: package daemon is the one place that
// serves /metrics, registers the build and process gauges and writes
// the ready file; a daemon entry point that does any of it by hand, or
// builds its own telemetry exporter, has drifted from the shared boot
// and stop sequence.
func TestDaemonLifecycleWiredOnce(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and type-checks the whole module")
	}
	prog, root, err := loadSelf()
	if err != nil {
		t.Fatal(err)
	}
	const daemonPkg = "rai/internal/daemon"
	wiring := map[string]bool{
		"rai/internal/telemetry.ServeMetrics":           true,
		"rai/internal/telemetry.RegisterBuildInfo":      true,
		"rai/internal/telemetry.RegisterProcessMetrics": true,
		daemonPkg + ".writeInfo":                        true,
	}
	daemons := map[string]bool{
		"rai/cmd/raibroker": true, "rai/cmd/raifs": true, "rai/cmd/raidb": true,
		"rai/cmd/raiworker": true, "rai/cmd/raiadmin": true,
	}
	for _, pkg := range prog.Packages {
		if pkg.Path == daemonPkg {
			continue
		}
		for _, f := range pkg.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				var id *ast.Ident
				switch fn := call.Fun.(type) {
				case *ast.Ident:
					id = fn
				case *ast.SelectorExpr:
					id = fn.Sel
				default:
					return true
				}
				obj, ok := pkg.Info.Uses[id].(*types.Func)
				if !ok || obj.Pkg() == nil {
					return true
				}
				name := obj.Pkg().Path() + "." + obj.Name()
				if wiring[name] || daemons[pkg.Path] && name == "rai/internal/telemetry.NewExporter" {
					pos := prog.Fset.Position(call.Pos())
					rel, _ := filepath.Rel(root, pos.Filename)
					t.Errorf("%s:%d calls %s outside %s", rel, pos.Line, name, daemonPkg)
				}
				return true
			})
		}
	}
}
