// Command raivet runs RAI's project-specific static-analysis checks
// over the module. See internal/lint for the engine; `raivet -list`
// prints the checks, and DESIGN.md §10 gives each one's invariant.
//
// Usage:
//
//	raivet [flags] [dir]
//
// dir defaults to ".". raivet locates the enclosing go.mod, loads and
// type-checks every non-test package under dir (every package including
// tests with -tests), and prints one line per finding. -max-ignores N
// budgets the live //lint:ignore directives: exceeding N fails the run
// even when no check fires.
// Exit status: 0 when clean, 1 when findings were reported (or the
// suppression budget is exceeded), 2 on usage or load errors.
package main

import (
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
		enable     = fs.String("enable", "", "comma-separated checks to run (default: all)")
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

	checks, err := lint.Select(splitList(*enable))
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

	for _, d := range diags {
		fmt.Fprintln(stdout, d.String())
	}
	status := 0
	if len(diags) > 0 {
		fmt.Fprintf(stderr, "raivet: %d finding(s)\n", len(diags))
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
