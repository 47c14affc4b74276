// Command raivet runs RAI's project-specific static-analysis checks
// over the module. See internal/lint for the engine; the checks:
//
//	clock       no direct time.Now/Sleep/... outside internal/clock
//	ctxbg       no context.Background()/TODO() in library code
//	ctxfirst    exported functions take ctx as the first parameter
//	span        every started telemetry span is ended or handed off
//	httpresp    every *http.Response body is closed and drained
//	wgadd       WaitGroup.Add happens before the goroutine it counts
//	lockcopy    no sync-primitive-bearing values passed by value
//	stream      no io.ReadAll in the storage data plane
//	lockorder   no cycles in the whole-module lock-ordering graph
//	goroleak    spawned goroutines cannot block forever uncancellably
//	errflow     error results are not dropped or overwritten unchecked
//	ctxflow     callers with ctx in scope do not pass Background roots
//
// The last four are interprocedural: they run on a whole-module call
// graph with per-function summaries (see internal/lint/summary.go).
//
// Usage:
//
//	raivet [flags] [dir]
//
// dir defaults to ".". raivet locates the enclosing go.mod, loads and
// type-checks every non-test package under dir (every package including
// tests with -tests), and prints one line per finding (-json and -sarif
// switch formats). -max-ignores N budgets the live //lint:ignore
// directives: exceeding N fails the run even when no check fires.
// Exit status: 0 when clean, 1 when findings were reported (or the
// suppression budget is exceeded), 2 on usage or load errors.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"rai/internal/lint"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("raivet", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		jsonOut    = fs.Bool("json", false, "emit findings as a JSON array instead of text lines")
		sarifOut   = fs.Bool("sarif", false, "emit findings as a SARIF 2.1.0 document")
		enable     = fs.String("enable", "", "comma-separated checks to run (default: all)")
		disable    = fs.String("disable", "", "comma-separated checks to skip")
		list       = fs.Bool("list", false, "list available checks and exit")
		tests      = fs.Bool("tests", false, "also load _test.go files")
		maxIgnores = fs.Int("max-ignores", -1, "fail when live //lint:ignore directives exceed N (-1: no budget)")
	)
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: raivet [flags] [dir]\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *list {
		for _, c := range lint.Checks() {
			fmt.Fprintf(stdout, "%-10s %s\n", c.Name, c.Doc)
		}
		return 0
	}
	dir := "."
	switch fs.NArg() {
	case 0:
	case 1:
		dir = fs.Arg(0)
	default:
		fs.Usage()
		return 2
	}
	// Accept "./..." spelling for familiarity with go tool conventions:
	// the tree walk already recurses.
	dir = strings.TrimSuffix(dir, "...")
	if dir == "" {
		dir = "."
	}

	checks, err := lint.Select(splitList(*enable), splitList(*disable))
	if err != nil {
		fmt.Fprintln(stderr, "raivet:", err)
		return 2
	}

	root, modPath, err := lint.ModuleRoot(dir)
	if err != nil {
		fmt.Fprintln(stderr, "raivet:", err)
		return 2
	}
	abs, err := filepath.Abs(dir)
	if err != nil {
		fmt.Fprintln(stderr, "raivet:", err)
		return 2
	}
	loader := lint.NewLoader()
	if *tests {
		loader.IncludeTests()
	}
	prog, err := loader.LoadTree(abs, importPathFor(root, modPath, abs))
	if err != nil {
		fmt.Fprintln(stderr, "raivet:", err)
		return 2
	}

	diags := lint.Run(prog, checks)
	// Report module-relative paths so output is stable across machines.
	for i := range diags {
		if rel, err := filepath.Rel(root, diags[i].File); err == nil && !strings.HasPrefix(rel, "..") {
			diags[i].File = filepath.ToSlash(rel)
		}
	}

	switch {
	case *sarifOut:
		if err := lint.WriteSARIF(stdout, diags); err != nil {
			fmt.Fprintln(stderr, "raivet:", err)
			return 2
		}
	case *jsonOut:
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if diags == nil {
			diags = []lint.Diagnostic{}
		}
		if err := enc.Encode(diags); err != nil {
			fmt.Fprintln(stderr, "raivet:", err)
			return 2
		}
	default:
		for _, d := range diags {
			fmt.Fprintln(stdout, d.String())
		}
	}
	status := 0
	if len(diags) > 0 {
		if !*jsonOut && !*sarifOut {
			fmt.Fprintf(stderr, "raivet: %d finding(s)\n", len(diags))
		}
		status = 1
	}
	if *maxIgnores >= 0 {
		if n := lint.CountIgnores(prog); n > *maxIgnores {
			fmt.Fprintf(stderr, "raivet: %d live //lint:ignore directive(s) exceed the budget of %d; pay one down before adding another\n", n, *maxIgnores)
			status = 1
		}
	}
	return status
}

// importPathFor maps the directory being linted to its import path
// within the module ("root/internal" -> "modPath/internal").
func importPathFor(root, modPath, dir string) string {
	rel, err := filepath.Rel(root, dir)
	if err != nil || rel == "." {
		return modPath
	}
	return modPath + "/" + filepath.ToSlash(rel)
}

func splitList(s string) []string {
	if s == "" {
		return nil
	}
	var out []string
	for _, part := range strings.Split(s, ",") {
		if part = strings.TrimSpace(part); part != "" {
			out = append(out, part)
		}
	}
	return out
}
