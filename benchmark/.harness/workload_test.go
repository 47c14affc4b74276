package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"io/fs"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"
)

// treeDigest hashes every path and byte under dir.
func treeDigest(t *testing.T, dir string) string {
	t.Helper()
	h := sha256.New()
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		rel, _ := filepath.Rel(dir, path)
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		h.Write([]byte(rel + "\x00"))
		h.Write(data)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// digests plays turns on a fresh project and returns the tree's digest
// after creation and after every turn, with the canaries promised.
func digests(t *testing.T, wl *workload, seed uint64, turns int) ([]string, []string) {
	t.Helper()
	dir := t.TempDir()
	p, err := newProject(dir, subSeed(seed, wl.Name, 0), wl)
	if err != nil {
		t.Fatal(err)
	}
	ds, wants := []string{treeDigest(t, dir)}, []string{}
	for i := 0; i < turns; i++ {
		want, err := p.nextTurn()
		if err != nil {
			t.Fatal(err)
		}
		ds, wants = append(ds, treeDigest(t, dir)), append(wants, want)
	}
	return ds, wants
}

func TestSameSeedSameTrees(t *testing.T) {
	for i := range workloads {
		wl := &workloads[i]
		a, wantsA := digests(t, wl, 408, 4)
		b, wantsB := digests(t, wl, 408, 4)
		if !reflect.DeepEqual(a, b) || !reflect.DeepEqual(wantsA, wantsB) {
			t.Errorf("%s: the same seed gave different trees", wl.Name)
		}
		c, _ := digests(t, wl, 409, 4)
		seen := map[string]bool{}
		for j, d := range a {
			if d == c[j] {
				t.Errorf("%s: seeds 408 and 409 agree at turn %d", wl.Name, j)
			}
			if seen[d] {
				t.Errorf("%s: turn %d repeats an earlier tree, so the build cache would answer it", wl.Name, j)
			}
			seen[d] = true
		}
	}
}

func TestStudentsShareNoBlobs(t *testing.T) {
	wl := workloadByName("fresh_large")
	a, b := t.TempDir(), t.TempDir()
	if _, err := newProject(a, subSeed(408, wl.Name, 0), wl); err != nil {
		t.Fatal(err)
	}
	if _, err := newProject(b, subSeed(408, wl.Name, 1), wl); err != nil {
		t.Fatal(err)
	}
	x, _ := os.ReadFile(filepath.Join(a, "blobs/blob-0.bin"))
	y, _ := os.ReadFile(filepath.Join(b, "blobs/blob-0.bin"))
	if len(x) != blobBytes || string(x) == string(y) {
		t.Error("two students' blobs must be full-sized and differ, or their chunks would dedup")
	}
}

func TestTreeSizesAndEdits(t *testing.T) {
	size := func(dir string) (total int64) {
		_ = filepath.WalkDir(dir, func(_ string, d fs.DirEntry, _ error) error {
			if info, err := d.Info(); err == nil && !d.IsDir() {
				total += info.Size()
			}
			return nil
		})
		return total
	}
	small := t.TempDir()
	p, err := newProject(small, 1, workloadByName("dev_small"))
	if err != nil {
		t.Fatal(err)
	}
	before := size(small)
	if before < 3<<10 || before > 5<<10 {
		t.Errorf("small tree is %d bytes, want about 4 KB", before)
	}
	old, _ := os.ReadFile(filepath.Join(small, "ece408_src/new-forward.cuh"))
	if _, err := p.nextTurn(); err != nil {
		t.Fatal(err)
	}
	cur, _ := os.ReadFile(filepath.Join(small, "ece408_src/new-forward.cuh"))
	changed := 0
	oldLines, curLines := strings.Split(string(old), "\n"), strings.Split(string(cur), "\n")
	for i := range oldLines {
		if oldLines[i] != curLines[i] {
			changed++
		}
	}
	if changed != 1 || size(small) != before {
		t.Errorf("a small turn changed %d lines and the size %d -> %d; want one line, same size", changed, before, size(small))
	}

	for _, name := range []string{"fresh_large", "edit_large"} {
		wl := workloadByName(name)
		dir := t.TempDir()
		p, err := newProject(dir, 1, wl)
		if err != nil {
			t.Fatal(err)
		}
		blob := func(i int) string {
			data, _ := os.ReadFile(filepath.Join(dir, "blobs", "blob-"+string(rune('0'+i))+".bin"))
			return string(data)
		}
		var old [blobFiles]string
		for i := range old {
			old[i] = blob(i)
		}
		want, err := p.nextTurn()
		if err != nil {
			t.Fatal(err)
		}
		rewritten := 0
		for i := range old {
			if blob(i) != old[i] {
				rewritten++
			}
		}
		if expect := map[bool]int{true: blobFiles, false: 1}[wl.RewriteAll]; rewritten != expect {
			t.Errorf("%s rewrote %d blobs, want %d", name, rewritten, expect)
		}
		canary, _ := os.ReadFile(filepath.Join(dir, "canary.txt"))
		if strings.TrimSpace(string(canary)) != want || want == "" {
			t.Errorf("%s: canary.txt holds %q, job must print %q", name, canary, want)
		}
	}
}

func TestBurstOrderDeterministicAndDistinct(t *testing.T) {
	a, b := rand.New(rand.NewSource(7)), rand.New(rand.NewSource(7))
	for k := 0; k < 20; k++ {
		x, y := burstOrder(a, k), burstOrder(b, k)
		if !reflect.DeepEqual(x, y) {
			t.Fatalf("burst %d differs between two runs of one seed", k)
		}
		seen := map[int]bool{}
		for _, s := range x {
			if seen[s] || s < (k%2)*burstSize || s >= (k%2+1)*burstSize {
				t.Fatalf("burst %d = %v: want %d distinct students of half %d", k, x, burstSize, k%2)
			}
			seen[s] = true
		}
	}
}

func TestCheckOutput(t *testing.T) {
	const smallOut = "Building project\nCorrectness: 0.9000 Model: im2col\njob rai-123 succeeded (elapsed 0.1s)\nbuild output: rai-builds/student-00/rai-123/build.tar.bz2\n"
	id, corr, key, err := checkOutput(smallOut, false, "")
	if err != nil || id != "rai-123" || corr != "0.9000" || key != "rai-builds/student-00/rai-123/build.tar.bz2" {
		t.Errorf("small: id=%q corr=%q key=%q err=%v", id, corr, key, err)
	}
	if _, _, _, err := checkOutput(strings.Replace(smallOut, "succeeded", "failed", 1), false, ""); err == nil {
		t.Error("a failed job passed")
	}
	if _, _, _, err := checkOutput(strings.Replace(smallOut, "Correctness", "Wrongness", 1), false, ""); err == nil {
		t.Error("a job without a Correctness line passed")
	}
	const largeOut = "blobs\ncanary.txt\ncanary turn 000003 nonce 00000000deadbeef\njob rai-9 succeeded (elapsed 0.2s)\n"
	if _, _, _, err := checkOutput(largeOut, true, "canary turn 000003 nonce 00000000deadbeef"); err != nil {
		t.Error(err)
	}
	if _, _, _, err := checkOutput(largeOut, true, "canary turn 000004 nonce 0000000000000001"); err == nil {
		t.Error("a stale tree's canary passed")
	}
}

// TestContractFileMatchesCode keeps BENCHMARK.json, which the driver
// reads, equal to the tables the harness reports from.
func TestContractFileMatchesCode(t *testing.T) {
	data, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var file struct {
		Command    []string    `json:"command"`
		Paths      []string    `json:"paths"`
		RunSeconds int         `json:"run_seconds"`
		Workloads  []workload  `json:"workloads"`
		EndToEnd   []metricDef `json:"end_to_end"`
		PerLayer   []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &file); err != nil {
		t.Fatal(err)
	}
	if file.RunSeconds*1e9/roundsPerWorkload != int(window) {
		t.Errorf("run_seconds %d is not %d rounds of %v", file.RunSeconds, roundsPerWorkload, window)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	if len(file.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in the file, %d in the code", len(file.Workloads), len(workloads))
	}
	for i, w := range file.Workloads {
		if w.Name != workloads[i].Name || w.Why != workloads[i].Why {
			t.Errorf("workload %d: file says %q / %q", i, w.Name, w.Why)
		}
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") || !name.MatchString(w.Name) {
			t.Errorf("workload %s breaks the contract's limits", w.Name)
		}
	}
	strip := func(defs []metricDef, keepBound bool) []metricDef {
		out := make([]metricDef, len(defs))
		for i, d := range defs {
			out[i] = metricDef{Name: d.Name, Unit: d.Unit, Better: d.Better}
			if keepBound {
				out[i].Bound = d.Bound
			}
			if !name.MatchString(d.Name) || !unit.MatchString(d.Unit) || d.Bound > 0.25 {
				t.Errorf("metric %+v breaks the contract's limits", d)
			}
		}
		return out
	}
	if !reflect.DeepEqual(file.EndToEnd, strip(endToEndDefs, true)) {
		t.Errorf("end_to_end differs:\nfile %+v\ncode %+v", file.EndToEnd, strip(endToEndDefs, true))
	}
	if !reflect.DeepEqual(file.PerLayer, strip(perLayerDefs, false)) {
		t.Errorf("per_layer differs:\nfile %+v\ncode %+v", file.PerLayer, strip(perLayerDefs, false))
	}
	if len(perLayerDefs) > 128 {
		t.Errorf("%d per-layer metrics, the contract allows 128", len(perLayerDefs))
	}
}
