package build

import (
	"reflect"
	"strings"
	"testing"
)

func TestDefaultRoundTrip(t *testing.T) {
	blob, err := Default().Encode()
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	for _, want := range []string{"cmake /src", "nvprof", "webgpu/rai:root", `version: "0.1"`} {
		if !strings.Contains(string(blob), want) {
			t.Errorf("encoded default spec missing %q:\n%s", want, blob)
		}
	}
	back, err := Parse(blob)
	if err != nil {
		t.Fatalf("Parse(encoded default): %v", err)
	}
	if got, want := len(back.RAI.Commands.Build), len(Default().RAI.Commands.Build); got != want {
		t.Fatalf("round trip lost commands: got %d want %d", got, want)
	}
	if back.RAI.Image != "webgpu/rai:root" {
		t.Errorf("round trip image = %q", back.RAI.Image)
	}
}

func TestSubmissionSpec(t *testing.T) {
	s := Submission()
	if err := s.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	blob, err := s.Encode()
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	for _, want := range []string{"submission_code", "/usr/bin/time", "testfull.hdf5"} {
		if !strings.Contains(string(blob), want) {
			t.Errorf("submission spec missing %q:\n%s", want, blob)
		}
	}
}

func TestParseRejects(t *testing.T) {
	cases := map[string]string{
		"bad version":  "rai:\n  version: 99\n  commands:\n    build:\n      - make\n",
		"no commands":  "rai:\n  version: 0.1\n  image: webgpu/rai:root\n",
		"unknown key":  "rai:\n  version: 0.1\n  bogus: 1\n  commands:\n    build:\n      - make\n",
		"negative gpu": "rai:\n  version: 0.2\n  resources:\n    gpus: -1\n  commands:\n    build:\n      - make\n",
	}
	for name, in := range cases {
		if _, err := Parse([]byte(in)); err == nil {
			t.Errorf("%s: Parse accepted invalid spec", name)
		}
	}
}

func TestParseResources(t *testing.T) {
	s, err := Parse([]byte("rai:\n  version: 0.2\n  image: webgpu/rai:root\n  resources:\n    gpus: 4\n  commands:\n    build:\n      - make\n"))
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if s.RAI.Resources.GPUs != 4 {
		t.Errorf("GPUs = %d, want 4", s.RAI.Resources.GPUs)
	}
}

// FuzzParse feeds Parse what a student controls: the rai-build.yml the
// worker's admit stage decodes. Whatever the bytes, Parse must not
// panic, and a spec it accepts must survive Encode → Parse unchanged.
func FuzzParse(f *testing.F) {
	small := "rai:\n  version: 0.1\n  image: webgpu/rai:root\n  commands:\n    build:\n" +
		"      - echo \"Building project\"\n      - cmake /src\n      - make\n" +
		"      - ./ece408 /data/test10.hdf5 /data/model.hdf5\n"
	seeds := []string{small, "rai:\n  version: 0.2\n  resources:\n    gpus: 2\n  commands:\n    build: [make, 'a: b']\n"}
	for _, s := range []*Spec{Default(), Submission()} {
		blob, err := s.Encode()
		if err != nil {
			f.Fatal(err)
		}
		seeds = append(seeds, string(blob))
	}
	for _, s := range seeds {
		for _, n := range []int{len(s), len(s) / 2, len(s) / 3, 7, 1} {
			f.Add([]byte(s[:min(n, len(s))]))
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		spec, err := Parse(data)
		if err != nil {
			return
		}
		blob, err := spec.Encode()
		if err != nil {
			t.Fatalf("accepted spec %+v does not encode: %v", spec, err)
		}
		back, err := Parse(blob)
		if err != nil {
			t.Fatalf("re-parsing the encoding of %+v: %v\n%s", spec, err, blob)
		}
		if !reflect.DeepEqual(spec, back) {
			t.Fatalf("round trip changed the spec:\n%+v\n%+v\nencoded:\n%s", spec, back, blob)
		}
	})
}
