package main

import (
	"bytes"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"rai/internal/lint"
)

func TestListChecks(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run([]string{"-list"}, &out, &errOut); code != 0 {
		t.Fatalf("run(-list) = %d, stderr: %s", code, errOut.String())
	}
	for _, name := range lint.CheckNames() {
		if !strings.Contains(out.String(), name) {
			t.Errorf("-list output missing check %q", name)
		}
	}
}

func TestUsageErrors(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run([]string{"-enable", "nope"}, &out, &errOut); code != 2 {
		t.Fatalf("unknown check: exit %d, want 2", code)
	}
	if !strings.Contains(errOut.String(), "nope") {
		t.Fatalf("stderr %q does not name the unknown check", errOut.String())
	}
	errOut.Reset()
	if code := run([]string{"a", "b"}, &out, &errOut); code != 2 {
		t.Fatalf("two dirs: exit %d, want 2", code)
	}
}

// TestFindingsOnFixture points raivet at a planted-violation package and
// checks the exit status, the module-relative paths, and one
// file:line:col: [check] line per finding. The fixture directory lives
// under the lint package so both suites share one set of golden files.
func TestFindingsOnFixture(t *testing.T) {
	fixture := filepath.Join("..", "..", "internal", "lint", "testdata", "src", "clockbad")

	var out, errOut bytes.Buffer
	code := run([]string{"-enable", "clock", fixture}, &out, &errOut)
	if code != 1 {
		t.Fatalf("exit %d, want 1; stderr: %s", code, errOut.String())
	}
	if !strings.Contains(errOut.String(), "3 finding(s)") {
		t.Fatalf("stderr summary missing: %q", errOut.String())
	}
	const file = "internal/lint/testdata/src/clockbad/clockbad.go:"
	var lines []int
	for _, l := range strings.Split(strings.TrimSpace(out.String()), "\n") {
		rest, ok := strings.CutPrefix(l, file)
		if !ok || !strings.Contains(rest, ": [clock] ") {
			t.Fatalf("finding %q is not a module-relative [clock] line", l)
		}
		n, err := strconv.Atoi(rest[:strings.IndexByte(rest, ':')])
		if err != nil {
			t.Fatalf("finding %q: %v", l, err)
		}
		lines = append(lines, n)
	}
	if want := []int{16, 21, 22}; !reflect.DeepEqual(lines, want) {
		t.Errorf("finding lines = %v, want %v", lines, want)
	}
}

func TestCleanPackage(t *testing.T) {
	dir := filepath.Join("..", "..", "internal", "clock")
	var out, errOut bytes.Buffer
	if code := run([]string{dir}, &out, &errOut); code != 0 {
		t.Fatalf("internal/clock should be clean; exit %d\n%s%s", code, out.String(), errOut.String())
	}
	if out.Len() != 0 || errOut.Len() != 0 {
		t.Fatalf("clean run printed output:\n%s%s", out.String(), errOut.String())
	}
}

// TestMaxIgnoresBudget: a clean package with a budget of 0 passes, and
// the budget trips the exit status even when no check fires.
func TestMaxIgnoresBudget(t *testing.T) {
	dir := filepath.Join("..", "..", "internal", "clock")
	var out, errOut bytes.Buffer
	if code := run([]string{"-max-ignores", "0", dir}, &out, &errOut); code != 0 {
		t.Fatalf("clean package, budget 0: exit %d\n%s%s", code, out.String(), errOut.String())
	}
	// The objstore package carries live ignores; a budget of 0 from its
	// directory must fail and say why.
	objstoreDir := filepath.Join("..", "..", "internal", "objstore")
	out.Reset()
	errOut.Reset()
	code := run([]string{"-max-ignores", "0", objstoreDir}, &out, &errOut)
	if code != 1 {
		t.Fatalf("budget 0 over a package with ignores: exit %d, want 1\n%s", code, errOut.String())
	}
	if !strings.Contains(errOut.String(), "exceed the budget") {
		t.Fatalf("stderr does not explain the budget failure: %q", errOut.String())
	}
}

func TestSplitList(t *testing.T) {
	if got := splitList(""); got != nil {
		t.Fatalf("splitList(\"\") = %v", got)
	}
	got := splitList("clock, span,,httpresp ")
	if want := []string{"clock", "span", "httpresp"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("splitList = %v, want %v", got, want)
	}
}
