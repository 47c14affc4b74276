package lint

import (
	"go/ast"
	"go/types"
)

// checkWgAdd flags sync.WaitGroup.Add calls made inside the goroutine
// they account for. Add must happen-before the corresponding Wait; an
// Add racing Wait from inside the spawned goroutine lets Wait return
// before the work is tracked — the canonical drain bug.
func checkWgAdd(prog *Program, pkg *Package) []Diagnostic {
	var diags []Diagnostic
	walkFuncs(pkg, func(decl *ast.FuncDecl) {
		ast.Inspect(decl.Body, func(n ast.Node) bool {
			g, ok := n.(*ast.GoStmt)
			if !ok {
				return true
			}
			lit, ok := g.Call.Fun.(*ast.FuncLit)
			if !ok {
				return true
			}
			ast.Inspect(lit.Body, func(m ast.Node) bool {
				call, ok := m.(*ast.CallExpr)
				if !ok {
					return true
				}
				sel, ok := call.Fun.(*ast.SelectorExpr)
				if !ok || sel.Sel.Name != "Add" || !isWaitGroup(pkg.Info.Types[sel.X].Type) {
					return true
				}
				// A WaitGroup declared inside this literal is its own
				// nested scope; only flag captured ones.
				if root := identRoot(sel.X); root != nil {
					if obj := pkg.Info.Uses[root]; obj != nil && lit.Pos() <= obj.Pos() && obj.Pos() <= lit.End() {
						return true
					}
				}
				diags = append(diags, Diagnostic{
					Check:   "wgadd",
					Pos:     prog.Fset.Position(call.Pos()),
					Message: "WaitGroup.Add inside the spawned goroutine races Wait: call Add before the go statement",
				})
				return true
			})
			return true
		})
	})
	return diags
}

func isWaitGroup(t types.Type) bool {
	if t == nil {
		return false
	}
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "WaitGroup" && obj.Pkg() != nil && obj.Pkg().Path() == "sync"
}

// syncLockTypes are the sync primitives that must never be copied once
// used. (go vet's copylocks catches many copies; this check also covers
// the signature-level ones — value receivers, parameters, and returns —
// uniformly, so the invariant is enforced even where vet is not run.)
var syncLockTypes = map[string]bool{
	"Mutex":     true,
	"RWMutex":   true,
	"WaitGroup": true,
	"Once":      true,
	"Cond":      true,
	"Map":       true,
	"Pool":      true,
}

// checkLockCopy flags functions whose receiver, parameters, or results
// carry — by value — a type that transitively contains a sync primitive.
func checkLockCopy(prog *Program, pkg *Package) []Diagnostic {
	var diags []Diagnostic
	walkFuncs(pkg, func(decl *ast.FuncDecl) {
		flag := func(field *ast.Field, role string) {
			t := pkg.Info.Types[field.Type].Type
			if t == nil {
				return
			}
			if name, found := containsLock(t, map[types.Type]bool{}); found {
				diags = append(diags, Diagnostic{
					Check:   "lockcopy",
					Pos:     prog.Fset.Position(field.Type.Pos()),
					Message: role + " copies " + name + " by value: use a pointer",
				})
			}
		}
		if decl.Recv != nil {
			for _, f := range decl.Recv.List {
				flag(f, "receiver of "+decl.Name.Name)
			}
		}
		if decl.Type.Params != nil {
			for _, f := range decl.Type.Params.List {
				flag(f, "parameter of "+decl.Name.Name)
			}
		}
		if decl.Type.Results != nil {
			for _, f := range decl.Type.Results.List {
				flag(f, "result of "+decl.Name.Name)
			}
		}
	})
	return diags
}

// containsLock reports whether t (by value) transitively contains a
// sync primitive, returning the primitive's name. Pointers, slices,
// maps, channels, and interfaces stop the recursion: copying those does
// not copy the pointed-to lock.
func containsLock(t types.Type, seen map[types.Type]bool) (string, bool) {
	if seen[t] {
		return "", false
	}
	seen[t] = true
	switch v := t.(type) {
	case *types.Named:
		obj := v.Obj()
		if obj.Pkg() != nil && obj.Pkg().Path() == "sync" && syncLockTypes[obj.Name()] {
			return "sync." + obj.Name(), true
		}
		return containsLock(v.Underlying(), seen)
	case *types.Struct:
		for i := 0; i < v.NumFields(); i++ {
			if name, found := containsLock(v.Field(i).Type(), seen); found {
				return name, true
			}
		}
	case *types.Array:
		return containsLock(v.Elem(), seen)
	}
	return "", false
}
