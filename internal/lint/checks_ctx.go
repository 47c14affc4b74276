package lint

import (
	"go/ast"
	"go/types"
)

// checkCtxFirst enforces the context-first signature convention: when an
// exported function, method, or interface method takes a
// context.Context at all, it takes it as the first parameter.
func checkCtxFirst(prog *Program, pkg *Package) []Diagnostic {
	var diags []Diagnostic
	flag := func(pos ast.Node, what string) {
		diags = append(diags, Diagnostic{
			Check:   "ctxfirst",
			Pos:     prog.Fset.Position(pos.Pos()),
			Message: what + " takes context.Context but not as the first parameter",
		})
	}
	for _, f := range pkg.Files {
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if !d.Name.IsExported() {
					continue
				}
				if idx := ctxParamIndex(pkg, d.Type.Params); idx > 0 {
					flag(d.Name, "exported "+funcKind(d)+" "+d.Name.Name)
				}
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					ts, ok := spec.(*ast.TypeSpec)
					if !ok {
						continue
					}
					iface, ok := ts.Type.(*ast.InterfaceType)
					if !ok || !ts.Name.IsExported() {
						continue
					}
					for _, m := range iface.Methods.List {
						ft, ok := m.Type.(*ast.FuncType)
						if ok && len(m.Names) > 0 {
							if idx := ctxParamIndex(pkg, ft.Params); idx > 0 {
								flag(m.Names[0], "interface method "+ts.Name.Name+"."+m.Names[0].Name)
							}
						}
					}
				}
			}
		}
	}
	return diags
}

// ctxParamIndex returns the parameter index of the first
// context.Context parameter, or -1 when there is none. Indexes count
// individual names ("a, b int" is two parameters).
func ctxParamIndex(pkg *Package, params *ast.FieldList) int {
	if params == nil {
		return -1
	}
	idx := 0
	for _, field := range params.List {
		n := len(field.Names)
		if n == 0 {
			n = 1
		}
		if t := pkg.Info.Types[field.Type].Type; t != nil && isContextType(t) {
			return idx
		}
		idx += n
	}
	return -1
}

func isContextType(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "Context" && obj.Pkg() != nil && obj.Pkg().Path() == "context"
}

func funcKind(d *ast.FuncDecl) string {
	if d.Recv != nil {
		return "method"
	}
	return "function"
}

// stdlibFunc reports the function name when fun is a selector into the
// named standard-library package (e.g. context.Background).
func stdlibFunc(pkg *Package, fun ast.Expr, stdPkg string) (string, bool) {
	sel, ok := fun.(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return "", false
	}
	pn, ok := pkg.Info.Uses[id].(*types.PkgName)
	if !ok || pn.Imported().Path() != stdPkg {
		return "", false
	}
	return sel.Sel.Name, true
}
