package main

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"time"
)

// A workload is one way the class uses the system. The names are the
// benchmark's contract with BENCHMARK.json; the reasons are in README.md.
type workload struct {
	Name string `json:"name"`
	Why  string `json:"why"`
	// Loop is "closed" (each student submits again as soon as the last
	// job returns) or "open" (bursts arrive on a schedule regardless).
	Loop     string `json:"loop"`
	Students int    `json:"students"`
	// Large selects the 2 MiB blob tree with a null build; otherwise the
	// ~4 KB course project with the cmake/make/ece408 build.
	Large bool `json:"large"`
	// RewriteAll (large trees only) rewrites every blob each turn, so no
	// chunk is already on the server; otherwise one blob of eight changes.
	RewriteAll bool `json:"rewrite_all"`
	// SLOms is the latency limit a job must meet.
	SLOms float64 `json:"slo_ms"`
}

const (
	burstEvery = 250 * time.Millisecond
	burstSize  = 4
	// An open-loop student is reused every other burst, so a job may run
	// for two burst periods before it delays its own successor.
	openStudents = 2 * burstSize

	blobFiles = 8
	blobBytes = 256 << 10
	noteLines = 80
)

var workloads = []workload{
	{Name: "dev_small", Loop: "closed", Students: 2, SLOms: 250,
		Why: "two students resubmit the 4 KB course project after a one-line edit with no pause; per-job fixed costs in rai, brokerd, raidb and raiworker dominate"},
	{Name: "rush_open", Loop: "open", Students: openStudents, SLOms: 250,
		Why: "deadline rush: a burst of 4 small jobs every 250 ms on 2 worker slots, timed from the due time; the only place queue wait and dispatch block the result"},
	{Name: "fresh_large", Loop: "closed", Students: 2, Large: true, RewriteAll: true, SLOms: 750,
		Why: "two students submit 2 MiB of new bytes each turn with a null build; chunking, the raifs write path and the worker's per-chunk fetch dominate"},
	{Name: "edit_large", Loop: "closed", Students: 2, Large: true, SLOms: 750,
		Why: "as fresh_large but one file of eight changes, so 7/8 of the chunks dedup on upload while the worker still fetches all 2 MiB; separates raifs reads from writes"},
}

func workloadByName(name string) *workload {
	for i := range workloads {
		if workloads[i].Name == name {
			return &workloads[i]
		}
	}
	return nil
}

// subSeed derives an independent stream from the run's seed, so that
// each student of each workload draws its own bytes and no two trees
// share chunks by accident.
func subSeed(seed uint64, parts ...any) int64 {
	h := fnv.New64a()
	fmt.Fprint(h, seed)
	for _, p := range parts {
		fmt.Fprint(h, "/", p)
	}
	return int64(h.Sum64())
}

// project is one student's working directory. Every byte in it comes
// from rng; the system under test sees only the files.
type project struct {
	dir   string
	rng   *rand.Rand
	wl    *workload
	turn  int
	notes []string // small tree: the editable comment lines of the kernel file
	blob  []byte   // large tree: one buffer for every blob written, so a turn allocates nothing
}

const smallBuildYML = `rai:
  version: 0.1
  image: webgpu/rai:root
  commands:
    build:
      - echo "Building project"
      - cmake /src
      - make
      - ./ece408 /data/test10.hdf5 /data/model.hdf5
`

const largeBuildYML = `rai:
  version: 0.1
  image: webgpu/rai:root
  commands:
    build:
      - ls /src
      - cat /src/canary.txt
`

const cmakeLists = `cmake_minimum_required(VERSION 3.2)
project(ece408project)
add_executable(ece408 main.cu)
target_include_directories(ece408 PRIVATE ece408_src)
`

const mainCU = `// Course-provided driver: loads the model and dataset, runs the
// student forward kernel, reports correctness and the internal timer.
#include "new-forward.cuh"
int main(int argc, char **argv) { return run(argc, argv); }
`

// The pragmas are what the course's simulated toolchain reads from a
// kernel file; the notes below them are the student's scratch comments,
// one of which changes every turn.
const kernelHead = `// ECE408 project kernel
// rai::impl=im2col
// rai::tuning=1
#ifndef NEW_FORWARD_CUH
#define NEW_FORWARD_CUH
template <typename T>
void forward(T *y, const T *x, const T *k);
`

func newProject(dir string, seed int64, wl *workload) (*project, error) {
	p := &project{dir: dir, rng: rand.New(rand.NewSource(seed)), wl: wl}
	if wl.Large {
		if err := p.write("rai-build.yml", []byte(largeBuildYML)); err != nil {
			return nil, err
		}
		for i := 0; i < blobFiles; i++ {
			if err := p.writeBlob(i); err != nil {
				return nil, err
			}
		}
		return p, p.writeCanary()
	}
	for name, body := range map[string]string{
		"rai-build.yml": smallBuildYML, "CMakeLists.txt": cmakeLists, "main.cu": mainCU,
	} {
		if err := p.write(name, []byte(body)); err != nil {
			return nil, err
		}
	}
	p.notes = make([]string, noteLines)
	for i := range p.notes {
		p.notes[i] = p.note(i)
	}
	return p, p.writeKernel()
}

func (p *project) write(rel string, data []byte) error {
	path := filepath.Join(p.dir, rel)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

func (p *project) writeBlob(i int) error {
	if p.blob == nil {
		p.blob = make([]byte, blobBytes)
	}
	p.rng.Read(p.blob) // never fails (math/rand)
	return p.write(fmt.Sprintf("blobs/blob-%d.bin", i), p.blob)
}

func (p *project) canary() string {
	return fmt.Sprintf("canary turn %06d nonce %016x", p.turn, p.rng.Uint64())
}

func (p *project) writeCanary() error {
	return p.write("canary.txt", []byte(p.canary()+"\n"))
}

// note renders line i at a fixed width, so an edit never changes the
// tree's size and the modeled compile cost stays put.
func (p *project) note(i int) string {
	return fmt.Sprintf("// note %02d turn %06d %016x", i, p.turn, p.rng.Uint64())
}

func (p *project) writeKernel() error {
	body := kernelHead + strings.Join(p.notes, "\n") + "\n#endif\n"
	return p.write("ece408_src/new-forward.cuh", []byte(body))
}

// nextTurn applies this turn's edit. It returns the text the job's
// output must contain to prove that this turn's tree, and no stale
// one, reached the sandbox ("" on the small tree, whose build prints
// nothing that depends on the edit).
func (p *project) nextTurn() (string, error) {
	p.turn++
	if !p.wl.Large {
		i := p.rng.Intn(len(p.notes))
		p.notes[i] = p.note(i)
		return "", p.writeKernel()
	}
	if p.wl.RewriteAll {
		for i := 0; i < blobFiles; i++ {
			if err := p.writeBlob(i); err != nil {
				return "", err
			}
		}
	} else if err := p.writeBlob(p.rng.Intn(blobFiles)); err != nil {
		return "", err
	}
	want := p.canary()
	return want, p.write("canary.txt", []byte(want+"\n"))
}

// burstOrder is the order in which burst k's students submit: the
// students alternate between two halves of the pool, shuffled by rng.
func burstOrder(rng *rand.Rand, k int) []int {
	order := rng.Perm(burstSize)
	for i := range order {
		order[i] += (k % 2) * burstSize
	}
	return order
}
