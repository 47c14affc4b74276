// Package build implements the rai-build.yml specification (paper §V,
// Listings 1 and 2): the YAML file a student places at the project root
// to select the container image and the command list the worker runs.
// Final submissions ignore the student file and use the enforced
// Listing 2 spec, which times the full dataset and copies the submitted
// code into /build for auditing.
package build

import (
	"errors"
	"fmt"
	"strconv"
	"strings"

	"rai/internal/yamlite"
)

// FileName is the spec file looked up at the project root.
const FileName = "rai-build.yml"

// Versions the course toolchain accepts.
var supportedVersions = map[string]bool{"0.1": true, "0.2": true}

// MaxSpecBytes bounds a rai-build.yml. Listing 2 is under 300 bytes;
// the bound keeps a hostile file from holding the client, or a worker's
// admit stage, for longer than a few milliseconds.
const MaxSpecBytes = 64 << 10

// Spec is a parsed rai-build.yml.
type Spec struct {
	RAI Section
}

// Section is the top-level "rai:" mapping.
type Section struct {
	Version string
	// Image names the container image; it must be on the course
	// registry's whitelist. Empty means the worker's default image.
	Image string
	// Resources carries the reserved "machine requirements" extension
	// (§V): jobs that ask for more GPUs than a worker offers are handed
	// back for a bigger machine.
	Resources Resources
	Commands  Commands
}

// Resources are the machine requirements a spec may request.
type Resources struct {
	GPUs int
}

// Commands holds the command lists the worker executes in order.
type Commands struct {
	Build []string
}

// Parse decodes and validates a rai-build.yml. It walks the document
// by the spec's schema, rai.{version, image, resources.gpus,
// commands.build}: any other key is rejected (strict mode, like the
// real client), and a bad version or an empty command list is a loud
// error rather than a silent default. A plain "", "~" or "null" where a
// mapping, list or gpus belongs is its zero value; a string field takes
// the scalar's text as written.
func Parse(data []byte) (*Spec, error) {
	if len(data) > MaxSpecBytes {
		return nil, fmt.Errorf("build: %s is %d bytes, over the %d-byte limit", FileName, len(data), MaxSpecBytes)
	}
	root, err := yamlite.Parse(data)
	if err != nil {
		return nil, err
	}
	var s Spec
	r := &s.RAI
	err = mapping(root, "the document", func(key string, v *yamlite.Node) error {
		if key != "rai" {
			return errUnknown
		}
		return mapping(v, "rai", func(key string, v *yamlite.Node) error {
			switch key {
			case "version":
				return scalar(v, "rai.version", &r.Version)
			case "image":
				return scalar(v, "rai.image", &r.Image)
			case "resources":
				return mapping(v, "rai.resources", func(key string, v *yamlite.Node) error {
					if key != "gpus" {
						return errUnknown
					}
					return integer(v, "rai.resources.gpus", &r.Resources.GPUs)
				})
			case "commands":
				return mapping(v, "rai.commands", func(key string, v *yamlite.Node) error {
					if key != "build" {
						return errUnknown
					}
					return list(v, "rai.commands.build", &r.Commands.Build)
				})
			}
			return errUnknown
		})
	})
	if err != nil {
		return nil, err
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return &s, nil
}

// errUnknown is what a mapping's field function returns for a key the
// schema does not have; mapping names the key and its line.
var errUnknown = errors.New("unknown key")

// isNull reports whether n is a plain null scalar.
func isNull(n *yamlite.Node) bool {
	if n.Kind != yamlite.KindScalar || n.Quoted {
		return false
	}
	switch n.Value {
	case "", "~", "null", "Null", "NULL":
		return true
	}
	return false
}

// mapping hands each entry of the mapping n to field, in document order.
// A null n is an empty mapping.
func mapping(n *yamlite.Node, path string, field func(key string, v *yamlite.Node) error) error {
	if isNull(n) {
		return nil
	}
	if n.Kind != yamlite.KindMap {
		return fmt.Errorf("build: line %d: %s wants a mapping, got %s", n.Line, path, n.Kind)
	}
	for i, k := range n.Keys {
		if err := field(k, n.Values[i]); errors.Is(err, errUnknown) {
			return fmt.Errorf("build: line %d: unknown key %q in %s", n.Values[i].Line, k, path)
		} else if err != nil {
			return err
		}
	}
	return nil
}

// scalar sets dst to the scalar n's text.
func scalar(n *yamlite.Node, path string, dst *string) error {
	if n.Kind != yamlite.KindScalar {
		return fmt.Errorf("build: line %d: %s wants a string, got %s", n.Line, path, n.Kind)
	}
	*dst = n.Value
	return nil
}

// integer sets dst to the integer n holds; a null n is 0.
func integer(n *yamlite.Node, path string, dst *int) error {
	if isNull(n) {
		return nil
	}
	if n.Kind != yamlite.KindScalar {
		return fmt.Errorf("build: line %d: %s wants an integer, got %s", n.Line, path, n.Kind)
	}
	i, err := strconv.Atoi(n.Value)
	if err != nil {
		return fmt.Errorf("build: line %d: %s wants an integer, got %q", n.Line, path, n.Value)
	}
	*dst = i
	return nil
}

// list sets dst to the texts of the sequence n's scalars; a null n is
// an empty list.
func list(n *yamlite.Node, path string, dst *[]string) error {
	if isNull(n) {
		return nil
	}
	if n.Kind != yamlite.KindSeq {
		return fmt.Errorf("build: line %d: %s wants a list, got %s", n.Line, path, n.Kind)
	}
	out := make([]string, len(n.Items))
	for i, it := range n.Items {
		if it.Kind != yamlite.KindScalar {
			return fmt.Errorf("build: line %d: %s entry wants a string, got %s", it.Line, path, it.Kind)
		}
		out[i] = it.Value
	}
	*dst = out
	return nil
}

// Validate checks the invariants shared by parsed and programmatic specs.
func (s *Spec) Validate() error {
	if !supportedVersions[s.RAI.Version] {
		return fmt.Errorf("build: unsupported rai-build.yml version %q", s.RAI.Version)
	}
	if len(s.RAI.Commands.Build) == 0 {
		return fmt.Errorf("build: spec has no build commands")
	}
	if s.RAI.Resources.GPUs < 0 {
		return fmt.Errorf("build: negative gpu request %d", s.RAI.Resources.GPUs)
	}
	return nil
}

// Encode renders the spec as the rai-build.yml Parse reads back to it.
// Resources appear only when the spec asks for GPUs.
func (s *Spec) Encode() []byte {
	var b strings.Builder
	fmt.Fprintf(&b, "rai:\n  version: %s\n  image: %s\n", yamlite.Quote(s.RAI.Version), yamlite.Quote(s.RAI.Image))
	if g := s.RAI.Resources.GPUs; g != 0 {
		fmt.Fprintf(&b, "  resources:\n    gpus: %d\n", g)
	}
	b.WriteString("  commands:\n    build:\n")
	for _, c := range s.RAI.Commands.Build {
		fmt.Fprintf(&b, "      - %s\n", yamlite.Quote(c))
	}
	return []byte(b.String())
}

// Default is Listing 1: the spec used when a student project has no
// rai-build.yml — build with CMake, check correctness on the small
// dataset, and export an nvprof timeline.
func Default() *Spec {
	return &Spec{RAI: Section{
		Version: "0.1",
		Image:   "webgpu/rai:root",
		Commands: Commands{Build: []string{
			`echo "Building project"`,
			`cmake /src`,
			`make`,
			`./ece408 /data/test10.hdf5 /data/model.hdf5`,
			`nvprof --export-profile timeline.nvprof ./ece408 /data/test10.hdf5 /data/model.hdf5`,
		}},
	}}
}

// Submission is Listing 2: the enforced final-submission spec — the
// submitted code is copied into /build (line 7) and the full dataset is
// timed under /usr/bin/time (line 10), feeding the competition ranking.
func Submission() *Spec {
	return &Spec{RAI: Section{
		Version: "0.1",
		Image:   "webgpu/rai:root",
		Commands: Commands{Build: []string{
			`echo "Building project"`,
			`cp -r /src /build/submission_code`,
			`cmake /src`,
			`make`,
			`/usr/bin/time ./ece408 /data/testfull.hdf5 /data/model.hdf5 10000`,
		}},
	}}
}
