package lint

import (
	"sync"
	"testing"
)

// The module is loaded and type-checked once per test binary; the
// self-check test and the full-tree benchmark share the result, so the
// expensive part (type-checking the tree plus the standard library it
// imports) is paid a single time however many consumers run.
var (
	selfOnce sync.Once
	selfProg *Program
	selfRoot string
	selfErr  error
)

func loadSelf() (*Program, string, error) {
	selfOnce.Do(func() {
		root, modPath, err := ModuleRoot(".")
		if err != nil {
			selfErr = err
			return
		}
		selfRoot = root
		selfProg, selfErr = NewLoader().LoadTree(root, modPath)
	})
	return selfProg, selfRoot, selfErr
}

// BenchmarkRaivetFullTree measures one complete raivet pass over this
// repository: call graph, SCC order, per-function summaries, and every
// check. Each iteration runs on a fresh Program sharing the loaded
// packages, so the interprocedural analysis is rebuilt (not served
// from the per-Program cache) while the parse/type-check stays
// amortized — the number CI watches is the analysis, not the loader.
func BenchmarkRaivetFullTree(b *testing.B) {
	prog, _, err := loadSelf()
	if err != nil {
		b.Fatal(err)
	}
	checks := Checks()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fresh := &Program{Fset: prog.Fset, Packages: prog.Packages}
		if diags := Run(fresh, checks); len(diags) > 0 {
			b.Fatalf("tree not clean during benchmark: %d finding(s)", len(diags))
		}
	}
}

// BenchmarkRaivetChecksWarm measures the checks alone against a warm
// interprocedural cache — the marginal cost of one more check pass.
func BenchmarkRaivetChecksWarm(b *testing.B) {
	prog, _, err := loadSelf()
	if err != nil {
		b.Fatal(err)
	}
	checks := Checks()
	prog.IPA() // warm the cache outside the timed region
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if diags := Run(prog, checks); len(diags) > 0 {
			b.Fatalf("tree not clean during benchmark: %d finding(s)", len(diags))
		}
	}
}
