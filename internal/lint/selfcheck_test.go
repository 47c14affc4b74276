package lint

import (
	"go/ast"
	"go/token"
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

// TestEveryDeclarationIsUsed: library API that only tests call is code
// no deployment runs. An exported func, method, type, var or const of a
// non-main package needs a use in some non-test file, and any
// package-level func or method needs one too. So does each method of an
// interface the module declares, where a call from code that serves
// HTTP does not count: it only forwards what a client sent. A method
// also counts as used when it implements an interface its receiver type
// satisfies and something can reach it through (see implementing). The
// remaining exceptions are unusedAllowed, one reason each.
func TestEveryDeclarationIsUsed(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and type-checks the whole module")
	}
	prog, root, err := loadSelf()
	if err != nil {
		t.Fatal(err)
	}
	matched := map[string]bool{}
	for _, d := range unusedDecls(prog) {
		if key := allowedUnused(d); key != "" {
			matched[key] = true
			continue
		}
		pos := prog.Fset.Position(d.pos)
		rel, _ := filepath.Rel(root, pos.Filename)
		t.Errorf("%s:%d: %s has no non-test use", rel, pos.Line, d.name)
	}
	for key := range unusedAllowed {
		if !matched[key] {
			t.Errorf("unusedAllowed lists %s, which is gone or now has a use; drop the entry", key)
		}
	}
}

// unusedAllowed names the declarations TestEveryDeclarationIsUsed lets
// stand without a non-test use. A key is a full name
// ("rai/internal/pkg.Type.Method") or a package path, which covers the
// whole package.
var unusedAllowed = map[string]string{
	// Test seams: API whose only job is to let tests reach a behaviour.
	"rai/internal/blobstore/conformance":           "the one suite every blobstore backend's tests run",
	"rai/internal/daemon/daemontest.Check":         "the lifecycle check every daemon's tests run",
	"rai/internal/lint.Loader.LoadDirs":            "loads the testdata packages the golden tests check",
	"rai/internal/netx.FlakyTransport":             "fault injector for the HTTP clients' retry tests",
	"rai/internal/netx.FlakyTransport.Attempts":    "lets retry tests count the attempts a fault cost",
	"rai/internal/netx.FlakyListener":              "fault injector for the TCP accept-path tests",
	"rai/internal/netx.FlakyListener.Accepted":     "lets accept-path tests count connections",
	"rai/internal/clock.Virtual.PendingTimers":     "lets tests wait until a goroutine has armed its timer",
	"rai/internal/clock.Virtual.NextDeadline":      "lets tests advance exactly to the next timer",
	"rai/internal/brokerd.WithLogf":                "routes the server's log lines into the test log",
	"rai/internal/slo.WithClock":                   "puts burn-rate windows on a virtual clock",
	"rai/internal/telemetry.WithTracerClock":       "stamps spans from a virtual clock",
	"rai/internal/telemetry.WithExportClock":       "puts the exporter's flush interval on a virtual clock",
	"rai/internal/telemetry.WithExportQueue":       "shrinks the buffer so backpressure tests overflow it",
	"rai/internal/telemetry.WithExportBatch":       "sets the batch size backpressure tests trip on",
	"rai/internal/telemetry.WithExportInterval":    "sets the flush interval the exporter tests run on",
	"rai/internal/telemetry.WithExportShipTimeout": "keeps a wedged ship call wedged in backpressure tests",
	"rai/internal/objstore.WithClientTransport":    "puts a fault-injecting transport under the objstore client",
	"rai/internal/broker.Broker.Stats":             "cross-package tests read topic and channel depths through it",
	"rai/internal/telemetry.Registry.Value":        "cross-package tests read one counter or gauge through it",
	"rai/internal/auth.NewCredentials":             "mints unregistered credentials for the daemons' and core's tests",
	// Names that open roadmap items own; each leaves with its item.
	"rai/internal/core.Client.DownloadBuild": "item 4 decides how a build's output comes back",
	"rai/internal/bzip2w.NewWriter":          "item 4 decides what packs a job's /build",
	"rai/internal/bzip2w.Compress":           "item 4 decides what packs a job's /build",
	"rai/internal/core.ErrRateLimited":       "item 2 makes the worker's rate-limit check return it",
	"rai/internal/sim.Deployment.RunCourse":  "item 7's course driver",
	"rai/internal/auth.SignHTTP":             "raifs -keys's only client, in cmd/raifs's TestAuthRequiredWithKeys",
	"rai/internal/docstore.Store.Insert":     "item 2's admission write inserts a user's slot on 0 matches",
	"rai/internal/docstore.Store.Update":     "item 2's admission write is one conditional update",
}

// allowedUnused returns the unusedAllowed key that covers d, or "".
func allowedUnused(d unusedDecl) string {
	for _, key := range []string{d.name, d.pkg} {
		if _, ok := unusedAllowed[key]; ok {
			return key
		}
	}
	return ""
}

type unusedDecl struct {
	pkg, name string
	pos       token.Pos
}

// unusedDecls returns the declarations TestEveryDeclarationIsUsed
// checks that have no use, in source order. A use inside the
// declaration itself (recursion, a type's own methods) does not count.
func unusedDecls(prog *Program) []unusedDecl {
	type span struct{ from, to token.Pos }
	own := map[types.Object][]span{}
	var serving []span
	type cand struct {
		obj       types.Object
		pkg, name string
	}
	var cands []cand
	declared, kept := map[types.Object]bool{}, map[types.Object]bool{}
	for _, pkg := range prog.Packages {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				switch d := decl.(type) {
				case *ast.FuncDecl:
					fn, _ := pkg.Info.Defs[d.Name].(*types.Func)
					if fn == nil || d.Name.Name == "_" || d.Recv == nil && (d.Name.Name == "init" || d.Name.Name == "main") {
						continue
					}
					if servesHTTP(fn) {
						serving = append(serving, span{d.Pos(), d.End()})
					}
					own[fn] = append(own[fn], span{d.Pos(), d.End()})
					name := pkg.Path + "." + fn.Name()
					if recv := receiverNamed(fn); recv != nil {
						own[recv.Obj()] = append(own[recv.Obj()], span{d.Pos(), d.End()})
						name = pkg.Path + "." + recv.Obj().Name() + "." + fn.Name()
					}
					cands = append(cands, cand{fn, pkg.Path, name})
				case *ast.GenDecl:
					for _, spec := range d.Specs {
						var ids []*ast.Ident
						switch s := spec.(type) {
						case *ast.TypeSpec:
							ids = []*ast.Ident{s.Name}
							tn, _ := pkg.Info.Defs[s.Name].(*types.TypeName)
							if tn == nil || tn.IsAlias() {
								break
							}
							if it, ok := tn.Type().Underlying().(*types.Interface); ok {
								for i := 0; i < it.NumExplicitMethods(); i++ {
									m := it.ExplicitMethod(i)
									name := pkg.Path + "." + tn.Name() + "." + m.Name()
									declared[m] = true
									kept[m] = allowedUnused(unusedDecl{pkg: pkg.Path, name: name}) != ""
									cands = append(cands, cand{m, pkg.Path, name})
								}
							}
						case *ast.ValueSpec:
							ids = s.Names
						}
						for _, id := range ids {
							obj := pkg.Info.Defs[id]
							if obj == nil || !obj.Exported() || pkg.IsMain() {
								continue
							}
							own[obj] = append(own[obj], span{spec.Pos(), spec.End()})
							cands = append(cands, cand{obj, pkg.Path, pkg.Path + "." + obj.Name()})
						}
					}
				}
			}
		}
	}
	// used counts every use; called leaves out those in code serving HTTP.
	used := map[types.Object]bool{}
	called := map[types.Object]bool{}
	for _, pkg := range prog.Packages {
	uses:
		for id, obj := range pkg.Info.Uses {
			obj = originOf(obj)
			for _, s := range own[obj] {
				if s.from <= id.Pos() && id.Pos() < s.to {
					continue uses
				}
			}
			used[obj] = true
			for _, s := range serving {
				if s.from <= id.Pos() && id.Pos() < s.to {
					continue uses
				}
			}
			called[obj] = true
		}
	}
	reached := implementing(prog, declared, kept, called)
	var out []unusedDecl
	for _, c := range cands {
		ok := used[c.obj] || reached[c.obj]
		if declared[c.obj] {
			ok = reached[c.obj]
		}
		if !ok {
			out = append(out, unusedDecl{c.pkg, c.name, c.obj.Pos()})
		}
	}
	return out
}

// servesHTTP reports whether fn is code that serves HTTP requests: it
// returns an http.Handler or takes an http.ResponseWriter.
func servesHTTP(fn *types.Func) bool {
	is := func(t types.Type, name string) bool {
		n, ok := t.(*types.Named)
		return ok && n.Obj().Pkg() != nil && n.Obj().Pkg().Path() == "net/http" && n.Obj().Name() == name
	}
	sig := fn.Type().(*types.Signature)
	for i := 0; i < sig.Params().Len(); i++ {
		if is(sig.Params().At(i).Type(), "ResponseWriter") {
			return true
		}
	}
	for i := 0; i < sig.Results().Len(); i++ {
		if is(sig.Results().At(i).Type(), "Handler") {
			return true
		}
	}
	return false
}

func originOf(obj types.Object) types.Object {
	switch o := obj.(type) {
	case *types.Func:
		return o.Origin()
	case *types.Var:
		return o.Origin()
	}
	return obj
}

// receiverNamed returns the named type a method is declared on, or nil
// for a plain function.
func receiverNamed(fn *types.Func) *types.Named {
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return nil
	}
	t := recv.Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, _ := t.(*types.Named)
	return n
}

// implementing returns the methods that some named type of the module
// (or a pointer to it) contributes to an interface it satisfies,
// promoted methods included, and the used methods of the interfaces the
// module declares (declared). The interfaces are those the module's
// code writes (declared, or named in a signature, assertion or
// conversion), those in the signatures and fields it uses from the
// standard library (a value handed to sort.Sort is a sort.Interface),
// and those the standard library reaches by reflection or assertion on
// any value: error's Unwrap, Is and As, fmt.Stringer, the encoding/json
// and encoding marshalers, and io/fs's optional FS and file methods.
//
// A declared method is used when called names it, or names a method of
// the same name that one of its implementations provides (a concrete
// one, or one it contributes to another interface). An implementation is
// credited through a declared method only once that method is used, or
// when it is kept (listed in unusedAllowed): it cannot go while the
// interface names it.
func implementing(prog *Program, declared, kept, called map[types.Object]bool) map[types.Object]bool {
	byMethod := map[string][]*types.Interface{}
	seen := map[*types.Interface]bool{}
	add := func(t types.Type) {
		if n, ok := t.(*types.Named); ok && n.TypeParams().Len() > 0 {
			return
		}
		it, ok := t.Underlying().(*types.Interface)
		if !ok || seen[it] || !it.IsMethodSet() {
			return
		}
		seen[it] = true
		for i := 0; i < it.NumMethods(); i++ {
			byMethod[it.Method(i).Name()] = append(byMethod[it.Method(i).Name()], it)
		}
	}
	errType := types.Universe.Lookup("error").Type()
	for _, m := range []struct {
		name    string
		in, out types.Type
	}{
		{"Unwrap", nil, errType},
		{"Unwrap", nil, types.NewSlice(errType)},
		{"Is", errType, types.Typ[types.Bool]},
		{"As", types.Universe.Lookup("any").Type(), types.Typ[types.Bool]},
	} {
		var params *types.Tuple
		if m.in != nil {
			params = types.NewTuple(types.NewVar(token.NoPos, nil, "", m.in))
		}
		sig := types.NewSignatureType(nil, nil, nil, params, types.NewTuple(types.NewVar(token.NoPos, nil, "", m.out)), false)
		add(types.NewInterfaceType([]*types.Func{types.NewFunc(token.NoPos, nil, m.name, sig)}, nil).Complete())
	}
	reflected := map[string][]string{
		"fmt":           {"Stringer", "Formatter", "GoStringer"},
		"encoding/json": {"Marshaler", "Unmarshaler"},
		"encoding":      {"TextMarshaler", "TextUnmarshaler"},
		"io/fs":         {"ReadDirFile", "ReadDirFS", "ReadFileFS", "StatFS", "SubFS", "GlobFS"},
	}
	visited := map[*types.Package]bool{}
	var walk func(p *types.Package)
	walk = func(p *types.Package) {
		if visited[p] {
			return
		}
		visited[p] = true
		for _, name := range reflected[p.Path()] {
			add(p.Scope().Lookup(name).Type())
		}
		for _, imp := range p.Imports() {
			walk(imp)
		}
	}
	addSig := func(sig *types.Signature) {
		for _, tup := range []*types.Tuple{sig.Params(), sig.Results()} {
			for i := 0; i < tup.Len(); i++ {
				t := tup.At(i).Type()
				if s, ok := t.(*types.Slice); ok {
					t = s.Elem()
				}
				add(t)
			}
		}
	}
	inModule := map[*types.Package]bool{}
	for _, pkg := range prog.Packages {
		inModule[pkg.Types] = true
	}
	for _, pkg := range prog.Packages {
		walk(pkg.Types)
		for _, tv := range pkg.Info.Types {
			if tv.Type != nil {
				add(tv.Type)
			}
		}
		for _, obj := range pkg.Info.Uses {
			if obj.Pkg() == nil || inModule[obj.Pkg()] {
				continue
			}
			switch o := obj.(type) {
			case *types.Func:
				addSig(o.Type().(*types.Signature))
			case *types.Var:
				add(o.Type())
			}
		}
	}
	type impl struct {
		mset *types.MethodSet
		it   *types.Interface
	}
	var impls []impl
	for _, pkg := range prog.Packages {
		for _, obj := range pkg.Info.Defs {
			tn, ok := obj.(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok || named.TypeParams().Len() > 0 || types.IsInterface(named) {
				continue
			}
			ptr := types.NewPointer(named)
			mset := types.NewMethodSet(ptr)
			done := map[*types.Interface]bool{}
			for i := 0; i < mset.Len(); i++ {
				for _, it := range byMethod[mset.At(i).Obj().Name()] {
					if !done[it] && types.Implements(ptr, it) {
						impls = append(impls, impl{mset, it})
					}
					done[it] = true
				}
			}
		}
	}
	out := map[types.Object]bool{}
	for m := range declared {
		if called[m] {
			out[m] = true
		}
	}
	for changed := true; changed; {
		changed = false
		for _, im := range impls {
			for j := 0; j < im.it.NumMethods(); j++ {
				m := originOf(im.it.Method(j))
				sel := im.mset.Lookup(m.Pkg(), m.Name()).Obj()
				switch obj := originOf(sel); {
				case (!declared[m] || out[m]) && !out[obj]:
					out[obj] = true
					changed = true
				case declared[m] && !out[m] && (called[obj] || out[obj]):
					out[m] = true
					changed = true
				}
			}
		}
	}
	for _, im := range impls {
		for j := 0; j < im.it.NumMethods(); j++ {
			if m := originOf(im.it.Method(j)); kept[m] {
				out[originOf(im.mset.Lookup(m.Pkg(), m.Name()).Obj())] = true
			}
		}
	}
	return out
}
