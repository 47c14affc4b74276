package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// checkCtxFlow keeps contexts flowing from the process root to every
// callee. Two rules share one walk of each function body:
//
//   - In library (non-main) code, every context.Background() or
//     context.TODO() is a finding: library functions accept the
//     caller's ctx (deriving with WithoutCancel when they must outlive
//     it); only package main, where a process root genuinely exists,
//     and tests mint roots.
//   - A function that already has a context.Context in scope (its own
//     parameter, or a captured one in a nested literal) must forward
//     it: passing a fresh Background/TODO-rooted context to a
//     ctx-accepting callee severs cancellation exactly where the caller
//     promised to propagate it. This fires in package main too: a
//     daemon with a signal-derived root context that hands
//     context.Background() to a helper has disconnected that helper
//     from shutdown.
//
// The second rule flags an argument of type context.Context whose
// expression mints Background/TODO inline (possibly wrapped:
// WithTimeout(context.Background(), d)), or that names a local variable
// *defined* from a Background-rooted expression (a one-hop derivation
// chain). In library code an inline mint is already the first rule's
// finding, so only the laundered shape adds one.
func checkCtxFlow(prog *Program, pkg *Package) []Diagnostic {
	var diags []Diagnostic
	for _, f := range pkg.Files {
		if isTestFile(prog, f) {
			continue
		}
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			diags = append(diags, ctxFlowInFunc(prog, pkg, fd)...)
		}
	}
	return diags
}

func ctxFlowInFunc(prog *Program, pkg *Package, fd *ast.FuncDecl) []Diagnostic {
	var diags []Diagnostic
	library := !pkg.IsMain()
	// tainted tracks Background-rooted local definitions; shared across
	// the literal nest (a captured tainted ctx stays tainted).
	tainted := map[types.Object]bool{}

	// walk processes one function body; inScope is whether any
	// enclosing function (this one included) has a ctx parameter.
	// Nested literals are visited exactly once, with their own scope.
	var walk func(body *ast.BlockStmt, self *ast.FuncLit, inScope bool)
	walk = func(body *ast.BlockStmt, self *ast.FuncLit, inScope bool) {
		ast.Inspect(body, func(n ast.Node) bool {
			switch v := n.(type) {
			case *ast.FuncLit:
				if v == self {
					return true
				}
				walk(v.Body, v, inScope || len(ctxParams(pkg, v.Type)) > 0)
				return false
			case *ast.AssignStmt:
				if v.Tok == token.DEFINE {
					for i, rhs := range v.Rhs {
						if !backgroundRooted(pkg, rhs, tainted) {
							continue
						}
						for j, lhs := range v.Lhs {
							if len(v.Rhs) > 1 && j != i {
								continue
							}
							if id, ok := lhs.(*ast.Ident); ok && id.Name != "_" {
								if obj := pkg.Info.Defs[id]; obj != nil && isContextType(obj.Type()) {
									tainted[obj] = true
								}
							}
						}
					}
				}
			case *ast.CallExpr:
				if name, ok := stdlibFunc(pkg, v.Fun, "context"); ok && library && (name == "Background" || name == "TODO") {
					diags = append(diags, Diagnostic{
						Check: "ctxflow",
						Pos:   prog.Fset.Position(v.Pos()),
						Message: "context." + name +
							"() in library code: accept the caller's ctx (derive with context.WithoutCancel to outlive it)",
					})
				}
				if !inScope {
					return true
				}
				for _, arg := range v.Args {
					if t := pkg.Info.Types[arg].Type; t == nil || !isContextType(t) {
						continue
					}
					if backgroundRooted(pkg, arg, tainted) && !(library && backgroundRooted(pkg, arg, nil)) {
						diags = append(diags, Diagnostic{
							Check: "ctxflow",
							Pos:   prog.Fset.Position(arg.Pos()),
							Message: "ctx is in scope but a context.Background-rooted context is passed: " +
								"forward ctx (derive with context.WithoutCancel to outlive it)",
						})
					}
				}
			}
			return true
		})
	}
	walk(fd.Body, nil, len(ctxParams(pkg, fd.Type)) > 0)
	return diags
}

// ctxParams returns the context.Context parameter objects of a
// function type.
func ctxParams(pkg *Package, ft *ast.FuncType) []types.Object {
	var out []types.Object
	if ft == nil || ft.Params == nil {
		return nil
	}
	for _, field := range ft.Params.List {
		t := pkg.Info.Types[field.Type].Type
		if t == nil || !isContextType(t) {
			continue
		}
		for _, name := range field.Names {
			if obj := pkg.Info.Defs[name]; obj != nil {
				out = append(out, obj)
			}
		}
	}
	return out
}

// backgroundRooted reports whether the expression mints or carries a
// context rooted in context.Background()/TODO(): a direct call, any
// wrapper call with such an argument, or a variable defined from one.
func backgroundRooted(pkg *Package, e ast.Expr, tainted map[types.Object]bool) bool {
	rooted := false
	ast.Inspect(e, func(n ast.Node) bool {
		switch v := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.CallExpr:
			if name, ok := stdlibFunc(pkg, v.Fun, "context"); ok && (name == "Background" || name == "TODO") {
				rooted = true
			}
		case *ast.Ident:
			if obj := pkg.Info.Uses[v]; obj != nil && tainted[obj] {
				rooted = true
			}
		}
		return !rooted
	})
	return rooted
}
