package main

import (
	"bytes"
	"strings"
	"testing"
)

func runSim(t *testing.T, args ...string) string {
	t.Helper()
	var out, errb bytes.Buffer
	if code := run(args, &out, &errb); code != 0 {
		t.Fatalf("raisim %v exited %d: %s", args, code, errb.String())
	}
	return out.String()
}

func TestRaisimArtifacts(t *testing.T) {
	cases := map[string][]string{
		"table1":   {"Table I", "RAI", "Testing Uniformity"},
		"figure1":  {"Figure 1", "rai/tasks", "Correctness: 1.0000", "database", "$ cmake /src", "$ make", "$ ./ece408 /data/test10.hdf5 /data/model.hdf5"},
		"listing1": {"Listing 1", "cmake /src", "nvprof", "webgpu/rai:root"},
		"listing2": {"Listing 2", "submission_code", "/usr/bin/time", "testfull.hdf5"},
		"listing3": {"Listing 3", "RAI_ACCESS_KEY", ".rai.profile", "Hello FirstName LastName"},
		"figure3":  {"Figure 3", "Linux", "OSX/Darwin", "Windows", "devel"},
		"limits":   {"rate limit", "memory", "lifetime", "network"},
	}
	for name, wants := range cases {
		t.Run(name, func(t *testing.T) {
			out := runSim(t, name)
			for _, w := range wants {
				if !strings.Contains(out, w) {
					t.Errorf("%s output missing %q:\n%s", name, w, out)
				}
			}
		})
	}
}

func TestRaisimCourseArtifacts(t *testing.T) {
	if testing.Short() {
		t.Skip("course generation takes ~100ms each")
	}
	out := runSim(t, "figure2")
	for _, w := range []string{"Figure 2", "fastest", "slowest", "#"} {
		if !strings.Contains(out, w) {
			t.Errorf("figure2 missing %q:\n%s", w, out)
		}
	}
	out = runSim(t, "figure4")
	if !strings.Contains(out, "Figure 4") || !strings.Contains(out, "total:") {
		t.Errorf("figure4:\n%s", out)
	}
	out = runSim(t, "stats")
	for _, w := range []string{"176", "58", "GB"} {
		if !strings.Contains(out, w) {
			t.Errorf("stats missing %q:\n%s", w, out)
		}
	}
	out = runSim(t, "baseline")
	if !strings.Contains(out, "fixed-4") || !strings.Contains(out, "elastic-4..30") {
		t.Errorf("baseline:\n%s", out)
	}
	out = runSim(t, "scaling")
	if !strings.Contains(out, "g2.2xlarge") || !strings.Contains(out, "benchmarking") {
		t.Errorf("scaling:\n%s", out)
	}
}

func TestRaisimBadArgs(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run(nil, &out, &errb); code == 0 {
		t.Error("no args accepted")
	}
	if code := run([]string{"figure99"}, &out, &errb); code == 0 {
		t.Error("unknown artifact accepted")
	}
}

// TestRaisimReproducible: two runs of every artifact from one seed print
// the same bytes — the figure 1 job's ID, its log topic and build key,
// and the keys Listing 3 mails are drawn from the seed too.
func TestRaisimReproducible(t *testing.T) {
	first, second := runSim(t, "-seed", "408", "all"), runSim(t, "-seed", "408", "all")
	if first != second {
		a, b := strings.Split(first, "\n"), strings.Split(second, "\n")
		for i := range min(len(a), len(b)) {
			if a[i] != b[i] {
				t.Fatalf("two runs of raisim -seed 408 all differ at line %d:\n%s\n%s", i+1, a[i], b[i])
			}
		}
		t.Fatalf("two runs of raisim -seed 408 all differ in length: %d and %d lines", len(a), len(b))
	}
	if !strings.Contains(first, "RAI_ACCESS_KEY") || !strings.Contains(first, "recorded with status succeeded") {
		t.Fatalf("all is missing listing3 or figure1:\n%s", first)
	}
}
