// Package lint is raivet's engine: a project-specific static-analysis
// pass that mechanically enforces the correctness invariants RAI's
// telemetry, RPC, and observability layers rely on but that the
// compiler cannot see — inject clock.Clock instead of reading the wall
// clock, thread context.Context instead of minting context.Background,
// end every span, close and drain every HTTP response body, and keep
// goroutine/WaitGroup/lock usage in the shapes that survive -race.
//
// Each invariant is a Check. Checks operate on type-checked packages
// (see load.go) so they resolve real objects — "time.Now" is flagged
// only when time is the standard-library package, not someone's local
// variable. Findings can be suppressed one line at a time:
//
//	//lint:ignore <check> <reason>
//
// placed on the offending line or the line directly above it. The
// reason is mandatory; a suppression without one is itself reported.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"sort"
	"strings"
)

// Diagnostic is one finding.
type Diagnostic struct {
	Check   string         `json:"check"`
	Pos     token.Position `json:"-"`
	File    string         `json:"file"`
	Line    int            `json:"line"`
	Col     int            `json:"col"`
	Message string         `json:"message"`
}

// String renders the conventional file:line:col: [check] message form.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", d.File, d.Line, d.Col, d.Check, d.Message)
}

// Check is one named invariant.
type Check struct {
	// Name is the identifier used by -enable/-disable flags and
	// //lint:ignore directives.
	Name string
	// Doc is a one-line description shown by raivet -list.
	Doc string
	// Run reports the check's findings for one package.
	Run func(prog *Program, pkg *Package) []Diagnostic
}

// Checks returns every check in stable order.
func Checks() []*Check {
	return []*Check{
		{Name: "clock", Doc: "no direct time.Now/Sleep/After/... outside internal/clock; inject clock.Clock", Run: checkClock},
		{Name: "ctxbg", Doc: "no context.Background()/context.TODO() in library (non-main) code", Run: checkCtxBackground},
		{Name: "ctxfirst", Doc: "exported functions take context.Context as the first parameter", Run: checkCtxFirst},
		{Name: "span", Doc: "every started telemetry span is ended or handed off", Run: checkSpan},
		{Name: "httpresp", Doc: "every *http.Response body is closed and drained before connection reuse", Run: checkHTTPResp},
		{Name: "wgadd", Doc: "sync.WaitGroup.Add happens before the goroutine it accounts for", Run: checkWgAdd},
		{Name: "lockcopy", Doc: "types containing sync primitives are not passed, received, or returned by value", Run: checkLockCopy},
		{Name: "stream", Doc: "no io.ReadAll in the storage data plane (objstore/docstore/blobstore); stream or bound with LimitReader", Run: checkStream},
		{Name: "lockorder", Doc: "no cycles in the whole-module lock-ordering graph (composed from function summaries)", Run: checkLockOrder},
		{Name: "goroleak", Doc: "spawned goroutines cannot block forever on a channel or sync wait without a cancellation path", Run: checkGoroLeak},
		{Name: "errflow", Doc: "error results are not discarded or overwritten before any check", Run: checkErrFlow},
		{Name: "ctxflow", Doc: "a caller with ctx in scope does not pass a context.Background-rooted context", Run: checkCtxFlow},
	}
}

// CheckNames returns the names of all checks, in order.
func CheckNames() []string {
	var names []string
	for _, c := range Checks() {
		names = append(names, c.Name)
	}
	return names
}

// Select resolves -enable/-disable style selections. enable empty means
// all checks; disable wins over enable. Unknown names are an error.
func Select(enable, disable []string) ([]*Check, error) {
	known := map[string]*Check{}
	for _, c := range Checks() {
		known[c.Name] = c
	}
	for _, n := range append(append([]string{}, enable...), disable...) {
		if known[n] == nil {
			return nil, fmt.Errorf("lint: unknown check %q (have %s)", n, strings.Join(CheckNames(), ", "))
		}
	}
	off := map[string]bool{}
	for _, n := range disable {
		off[n] = true
	}
	var out []*Check
	if len(enable) == 0 {
		for _, c := range Checks() {
			if !off[c.Name] {
				out = append(out, c)
			}
		}
		return out, nil
	}
	for _, n := range enable {
		if !off[n] {
			out = append(out, known[n])
		}
	}
	return out, nil
}

// Run applies checks to every package, resolves suppressions, and
// returns the surviving findings sorted by position.
func Run(prog *Program, checks []*Check) []Diagnostic {
	var diags []Diagnostic
	for _, pkg := range prog.Packages {
		sup, malformed := suppressions(prog, pkg)
		diags = append(diags, malformed...)
		for _, c := range checks {
			for _, d := range c.Run(prog, pkg) {
				d.File, d.Line, d.Col = d.Pos.Filename, d.Pos.Line, d.Pos.Column
				if sup.covers(d) {
					continue
				}
				diags = append(diags, d)
			}
		}
	}
	sort.Slice(diags, func(i, j int) bool {
		if diags[i].File != diags[j].File {
			return diags[i].File < diags[j].File
		}
		if diags[i].Line != diags[j].Line {
			return diags[i].Line < diags[j].Line
		}
		if diags[i].Col != diags[j].Col {
			return diags[i].Col < diags[j].Col
		}
		return diags[i].Check < diags[j].Check
	})
	return diags
}

// suppressionSet records which (file, line, check) triples are ignored.
type suppressionSet map[string]map[int]map[string]bool

func (s suppressionSet) covers(d Diagnostic) bool {
	return s[d.File][d.Line][d.Check] || s[d.File][d.Line]["*"]
}

func (s suppressionSet) add(file string, line int, check string) {
	byLine := s[file]
	if byLine == nil {
		byLine = map[int]map[string]bool{}
		s[file] = byLine
	}
	byCheck := byLine[line]
	if byCheck == nil {
		byCheck = map[string]bool{}
		byLine[line] = byCheck
	}
	byCheck[check] = true
}

// suppressions scans a package's comments for //lint:ignore directives.
// A well-formed directive ("//lint:ignore <check> <reason>") suppresses
// the named check on its own line and the line below; a directive with
// no reason (or naming an unknown check) is reported as a finding so
// suppressions stay auditable.
func suppressions(prog *Program, pkg *Package) (suppressionSet, []Diagnostic) {
	set := suppressionSet{}
	var malformed []Diagnostic
	known := map[string]bool{"*": true}
	for _, name := range CheckNames() {
		known[name] = true
	}
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				rest, ok := strings.CutPrefix(c.Text, "//lint:ignore")
				if !ok {
					continue
				}
				pos := prog.Fset.Position(c.Pos())
				fields := strings.Fields(rest)
				if len(fields) < 2 || !known[fields[0]] {
					malformed = append(malformed, Diagnostic{
						Check: "suppression",
						Pos:   pos, File: pos.Filename, Line: pos.Line, Col: pos.Column,
						Message: "malformed //lint:ignore: want \"//lint:ignore <check> <reason>\"",
					})
					continue
				}
				set.add(pos.Filename, pos.Line, fields[0])
				set.add(pos.Filename, pos.Line+1, fields[0])
			}
		}
	}
	return set, malformed
}

// ---- shared AST helpers used by the checks ----

// walkFuncs visits every function body in the package: declarations and
// their nested literals are visited as whole declarations (fn is called
// once per FuncDecl with a body).
func walkFuncs(pkg *Package, fn func(decl *ast.FuncDecl)) {
	for _, f := range pkg.Files {
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Body != nil {
				fn(fd)
			}
		}
	}
}

// identRoot unwraps selector chains and parenthesis to the leftmost
// identifier: a.b.c -> a, (x).y -> x. Returns nil for non-ident roots.
func identRoot(e ast.Expr) *ast.Ident {
	for {
		switch v := e.(type) {
		case *ast.Ident:
			return v
		case *ast.SelectorExpr:
			e = v.X
		case *ast.ParenExpr:
			e = v.X
		case *ast.IndexExpr:
			e = v.X
		case *ast.CallExpr:
			e = v.Fun
		case *ast.StarExpr:
			e = v.X
		case *ast.UnaryExpr:
			e = v.X
		default:
			return nil
		}
	}
}
