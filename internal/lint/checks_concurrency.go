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
