package build

import (
	"reflect"
	"strings"
	"testing"
)

func TestDefaultRoundTrip(t *testing.T) {
	blob := Default().Encode()
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
	blob := s.Encode()
	for _, want := range []string{"submission_code", "/usr/bin/time", "testfull.hdf5"} {
		if !strings.Contains(string(blob), want) {
			t.Errorf("submission spec missing %q:\n%s", want, blob)
		}
	}
}

// TestEncodeListings pins the bytes of Listings 1 and 2 as the client
// sends them and raisim prints them.
func TestEncodeListings(t *testing.T) {
	for name, tc := range map[string]struct {
		spec *Spec
		want string
	}{
		"listing 1": {Default(), "rai:\n  version: \"0.1\"\n  image: webgpu/rai:root\n  commands:\n    build:\n" +
			"      - echo \"Building project\"\n      - cmake /src\n      - make\n" +
			"      - ./ece408 /data/test10.hdf5 /data/model.hdf5\n" +
			"      - nvprof --export-profile timeline.nvprof ./ece408 /data/test10.hdf5 /data/model.hdf5\n"},
		"listing 2": {Submission(), "rai:\n  version: \"0.1\"\n  image: webgpu/rai:root\n  commands:\n    build:\n" +
			"      - echo \"Building project\"\n      - cp -r /src /build/submission_code\n      - cmake /src\n      - make\n" +
			"      - /usr/bin/time ./ece408 /data/testfull.hdf5 /data/model.hdf5 10000\n"},
	} {
		if got := string(tc.spec.Encode()); got != tc.want {
			t.Errorf("%s encodes as\n%s\nwant\n%s", name, got, tc.want)
		}
	}
}

// TestEncodeQuoting: every string Encode writes, quoted or plain, parses
// back to itself, resources included only when GPUs are asked for.
func TestEncodeQuoting(t *testing.T) {
	cmds := []string{"hello world", "a: b", "a # b", "#z", "true", "0.1", "", "~", "null", "- y", " lead",
		"a\nb", "x\x89", "a\x01\a\b\f\vb", "soft\u00adhyphen", "tag \U000e0001", "webgpu/rai:root", "'q'", "[x]"}
	spec := &Spec{RAI: Section{Version: "0.2", Resources: Resources{GPUs: 2}, Commands: Commands{Build: cmds}}}
	blob := spec.Encode()
	if !strings.Contains(string(blob), "  image: \"\"\n  resources:\n    gpus: 2\n") {
		t.Errorf("empty image or gpus encoded wrongly:\n%s", blob)
	}
	back, err := Parse(blob)
	if err != nil {
		t.Fatalf("Parse(%q): %v", blob, err)
	}
	if !reflect.DeepEqual(back, spec) {
		t.Errorf("round trip changed the spec:\n%q\n%q\nencoded:\n%s", spec.RAI.Commands.Build, back.RAI.Commands.Build, blob)
	}
}

// listing1 is Listing 1 as a student writes it: the version unquoted and
// the nvprof command folded over two lines.
const listing1 = "rai:\n  version: 0.1\n  image: webgpu/rai:root\n  commands:\n    build:\n      - echo \"Building project\"\n      - cmake /src\n      - make\n      - ./ece408 /data/test10.hdf5 /data/model.hdf5\n      - nvprof --export-profile timeline.nvprof\n          ./ece408 /data/test10.hdf5 /data/model.hdf5\n"

// TestListing1RoundTrip: Listing 1 parsed, encoded and parsed again is
// the same Spec, and encoding that Spec gives the same bytes again.
func TestListing1RoundTrip(t *testing.T) {
	s, err := Parse([]byte(listing1))
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	blob := s.Encode()
	back, err := Parse(blob)
	if err != nil {
		t.Fatalf("re-parsing %q: %v", blob, err)
	}
	if !reflect.DeepEqual(back, s) {
		t.Errorf("round trip mismatch:\n%#v\n%#v\nencoded:\n%s", s.RAI, back.RAI, blob)
	}
	if again := back.Encode(); string(again) != string(blob) {
		t.Errorf("second encoding differs:\n%s\nfirst:\n%s", again, blob)
	}
}

// TestParseTable pins what Parse accepts, and the Spec it returns,
// across the forms a student can write: null and quoted scalars, the
// version as a number or a string, gpus forms, keys the schema lacks at
// every level, the wrong kind of node in every position, and block
// scalars. A rejection names its line; an accepted spec encodes to a
// file that parses back to it.
func TestParseTable(t *testing.T) {
	cases := []struct {
		name, src string
		want      *Section
		err       string
	}{
		{"listing 1", listing1, &Section{Version: "0.1", Image: "webgpu/rai:root", Commands: Commands{Build: []string{"echo \"Building project\"", "cmake /src", "make", "./ece408 /data/test10.hdf5 /data/model.hdf5", "nvprof --export-profile timeline.nvprof ./ece408 /data/test10.hdf5 /data/model.hdf5"}}}, ""},
		{"plain version", "rai:\n  version: 0.1\n  commands:\n    build:\n      - make\n", &Section{Version: "0.1", Commands: Commands{Build: []string{"make"}}}, ""},
		{"quoted version", "rai:\n  version: \"0.1\"\n  commands:\n    build:\n      - make\n", &Section{Version: "0.1", Commands: Commands{Build: []string{"make"}}}, ""},
		{"single-quoted version", "rai:\n  version: '0.2'\n  commands:\n    build:\n      - make\n", &Section{Version: "0.2", Commands: Commands{Build: []string{"make"}}}, ""},
		{"version 0.10", "rai:\n  version: 0.10\n  commands:\n    build:\n      - make\n", nil, "build: unsupported rai-build.yml version \"0.10\""},
		{"numeric version 1", "rai:\n  version: 1\n  commands:\n    build:\n      - make\n", nil, "build: unsupported rai-build.yml version \"1\""},
		{"folded version", "rai:\n  version: >-\n    0.1\n  commands:\n    build:\n      - make\n", &Section{Version: "0.1", Commands: Commands{Build: []string{"make"}}}, ""},
		{"literal image", "rai:\n  version: 0.1\n  image: |\n    webgpu/rai:root\n  commands:\n    build:\n      - make\n", &Section{Version: "0.1", Image: "webgpu/rai:root\n", Commands: Commands{Build: []string{"make"}}}, ""},
		{"empty image", "rai:\n  version: 0.1\n  image:\n  commands:\n    build:\n      - make\n", &Section{Version: "0.1", Commands: Commands{Build: []string{"make"}}}, ""},
		{"tilde image", "rai:\n  version: 0.1\n  image: ~\n  commands:\n    build:\n      - make\n", &Section{Version: "0.1", Image: "~", Commands: Commands{Build: []string{"make"}}}, ""},
		{"null image", "rai:\n  version: 0.1\n  image: null\n  commands:\n    build:\n      - make\n", &Section{Version: "0.1", Image: "null", Commands: Commands{Build: []string{"make"}}}, ""},
		{"quoted empty image", "rai:\n  version: 0.1\n  image: \"\"\n  commands:\n    build:\n      - make\n", &Section{Version: "0.1", Commands: Commands{Build: []string{"make"}}}, ""},
		{"quoted tilde image", "rai:\n  version: 0.1\n  image: \"~\"\n  commands:\n    build:\n      - make\n", &Section{Version: "0.1", Image: "~", Commands: Commands{Build: []string{"make"}}}, ""},
		{"image with comment", "rai:\n  version: 0.1 # course toolchain\n  image: webgpu/rai:root # default\n  commands:\n    build:\n      - make\n", &Section{Version: "0.1", Image: "webgpu/rai:root", Commands: Commands{Build: []string{"make"}}}, ""},
		{"image as list", "rai:\n  version: 0.1\n  image:\n    - webgpu/rai:root\n  commands:\n    build:\n      - make\n", nil, "build: line 4: rai.image wants a string, got seq"},
		{"image as mapping", "rai:\n  version: 0.1\n  image:\n    name: webgpu/rai:root\n  commands:\n    build:\n      - make\n", nil, "build: line 4: rai.image wants a string, got map"},
		{"gpus", "rai:\n  version: 0.2\n  resources:\n    gpus: 4\n  commands:\n    build:\n      - make\n", &Section{Version: "0.2", Resources: Resources{GPUs: 4}, Commands: Commands{Build: []string{"make"}}}, ""},
		{"gpus plus sign", "rai:\n  version: 0.2\n  resources:\n    gpus: +3\n  commands:\n    build:\n      - make\n", &Section{Version: "0.2", Resources: Resources{GPUs: 3}, Commands: Commands{Build: []string{"make"}}}, ""},
		{"gpus quoted", "rai:\n  version: 0.2\n  resources:\n    gpus: \"3\"\n  commands:\n    build:\n      - make\n", &Section{Version: "0.2", Resources: Resources{GPUs: 3}, Commands: Commands{Build: []string{"make"}}}, ""},
		{"gpus zero", "rai:\n  version: 0.2\n  resources:\n    gpus: 0\n  commands:\n    build:\n      - make\n", &Section{Version: "0.2", Commands: Commands{Build: []string{"make"}}}, ""},
		{"gpus empty", "rai:\n  version: 0.2\n  resources:\n    gpus:\n  commands:\n    build:\n      - make\n", &Section{Version: "0.2", Commands: Commands{Build: []string{"make"}}}, ""},
		{"gpus tilde", "rai:\n  version: 0.2\n  resources:\n    gpus: ~\n  commands:\n    build:\n      - make\n", &Section{Version: "0.2", Commands: Commands{Build: []string{"make"}}}, ""},
		{"gpus null", "rai:\n  version: 0.2\n  resources:\n    gpus: NULL\n  commands:\n    build:\n      - make\n", &Section{Version: "0.2", Commands: Commands{Build: []string{"make"}}}, ""},
		{"gpus quoted empty", "rai:\n  version: 0.2\n  resources:\n    gpus: \"\"\n  commands:\n    build:\n      - make\n", nil, "build: line 4: rai.resources.gpus wants an integer, got \"\""},
		{"gpus float", "rai:\n  version: 0.2\n  resources:\n    gpus: 2.0\n  commands:\n    build:\n      - make\n", nil, "build: line 4: rai.resources.gpus wants an integer, got \"2.0\""},
		{"gpus overflow", "rai:\n  version: 0.2\n  resources:\n    gpus: 99999999999999999999\n  commands:\n    build:\n      - make\n", nil, "build: line 4: rai.resources.gpus wants an integer, got \"99999999999999999999\""},
		{"gpus negative", "rai:\n  version: 0.2\n  resources:\n    gpus: -1\n  commands:\n    build:\n      - make\n", nil, "build: negative gpu request -1"},
		{"gpus list", "rai:\n  version: 0.2\n  resources:\n    gpus:\n      - 1\n  commands:\n    build:\n      - make\n", nil, "build: line 5: rai.resources.gpus wants an integer, got seq"},
		{"resources empty", "rai:\n  version: 0.2\n  resources:\n  commands:\n    build:\n      - make\n", &Section{Version: "0.2", Commands: Commands{Build: []string{"make"}}}, ""},
		{"resources tilde", "rai:\n  version: 0.2\n  resources: ~\n  commands:\n    build:\n      - make\n", &Section{Version: "0.2", Commands: Commands{Build: []string{"make"}}}, ""},
		{"resources scalar", "rai:\n  version: 0.2\n  resources: 2\n  commands:\n    build:\n      - make\n", nil, "build: line 3: rai.resources wants a mapping, got scalar"},
		{"resources quoted null", "rai:\n  version: 0.2\n  resources: \"null\"\n  commands:\n    build:\n      - make\n", nil, "build: line 3: rai.resources wants a mapping, got scalar"},
		{"nested unknown in resources", "rai:\n  version: 0.2\n  resources:\n    cpus: 2\n  commands:\n    build:\n      - make\n", nil, "build: line 4: unknown key \"cpus\" in rai.resources"},
		{"nested unknown in commands", "rai:\n  version: 0.1\n  commands:\n    build:\n      - make\n    run:\n      - ./ece408\n", nil, "build: line 7: unknown key \"run\" in rai.commands"},
		{"unknown key in rai", "rai:\n  version: 0.1\n  bogus: 1\n  commands:\n    build:\n      - make\n", nil, "build: line 3: unknown key \"bogus\" in rai"},
		{"unknown top-level key", "rai:\n  version: 0.1\n  commands:\n    build:\n      - make\nother: 1\n", nil, "build: line 6: unknown key \"other\" in the document"},
		{"commands empty", "rai:\n  version: 0.1\n  commands:\n", nil, "build: spec has no build commands"},
		{"build tilde", "rai:\n  version: 0.1\n  commands:\n    build: ~\n", nil, "build: spec has no build commands"},
		{"build scalar", "rai:\n  version: 0.1\n  commands:\n    build: make\n", nil, "build: line 4: rai.commands.build wants a list, got scalar"},
		{"build mapping", "rai:\n  version: 0.1\n  commands:\n    build:\n      make: all\n", nil, "build: line 5: rai.commands.build wants a list, got map"},
		{"mapping as a command", "rai:\n  version: 0.1\n  commands:\n    build:\n      - make: all\n", nil, "build: line 5: rai.commands.build entry wants a string, got map"},
		{"list as a command", "rai:\n  version: 0.1\n  commands:\n    build:\n      -\n        - make\n", nil, "build: line 6: rai.commands.build entry wants a string, got seq"},
		{"null commands kept verbatim", "rai:\n  version: 0.1\n  commands:\n    build:\n      - make\n      - ~\n      -\n      - null\n", &Section{Version: "0.1", Commands: Commands{Build: []string{"make", "~", "", "null"}}}, ""},
		{"quoted commands", "rai:\n  version: 0.1\n  commands:\n    build:\n      - \"a: b\"\n      - 'it''s # here'\n      - \"tab\\there\"\n", &Section{Version: "0.1", Commands: Commands{Build: []string{"a: b", "it's # here", "tab\there"}}}, ""},
		{"block scalar as a command item", "rai:\n  version: 0.1\n  commands:\n    build:\n      - |\n        make\n", &Section{Version: "0.1", Commands: Commands{Build: []string{"make\n"}}}, ""},
		{"folded scalar as a command item", "rai:\n  version: 0.1\n  commands:\n    build:\n      - >\n        make\n        all\n      - make install\n", &Section{Version: "0.1", Commands: Commands{Build: []string{"make all\n", "make install"}}}, ""},
		{"quoted keys", "\"rai\":\n  'version': 0.1\n  \"commands\":\n    build:\n      - make\n", &Section{Version: "0.1", Commands: Commands{Build: []string{"make"}}}, ""},
		{"rai tilde", "rai: ~\n", nil, "build: unsupported rai-build.yml version \"\""},
		{"rai quoted", "rai: \"x\"\n", nil, "build: line 1: rai wants a mapping, got scalar"},
		{"rai list", "rai:\n  - version\n", nil, "build: line 2: rai wants a mapping, got seq"},
		{"empty document", "", nil, "build: unsupported rai-build.yml version \"\""},
		{"comments only", "# nothing here\n---\n", nil, "build: unsupported rai-build.yml version \"\""},
		{"top-level list", "- rai\n", nil, "build: line 1: the document wants a mapping, got seq"},
		{"top-level scalar", "rai\n", nil, "build: line 1: the document wants a mapping, got scalar"},
		{"duplicate key", "rai:\n  version: 0.1\n  version: 0.2\n  commands:\n    build:\n      - make\n", nil, "yamlite: line 3: duplicate key \"version\""},
		{"duplicate key in a list item", "rai:\n  version: 0.1\n  commands:\n    build:\n      - a: 1\n        a: 2\n", nil, "yamlite: line 6: duplicate key \"a\""},
		{"flow list", "rai:\n  version: 0.1\n  commands:\n    build: [make]\n", nil, "yamlite: line 4: flow collections are not supported"},
		{"tab indentation", "rai:\n\tversion: 0.1\n", nil, "yamlite: line 2: tab character in indentation"},
		{"anchor", "rai:\n  version: &v 0.1\n  commands:\n    build:\n      - make\n", nil, "yamlite: line 2: anchors/aliases are not supported"},
		{"keys in another order", "rai:\n  commands:\n    build:\n      - make\n  resources:\n    gpus: 1\n  image: img\n  version: 0.2\n", &Section{Version: "0.2", Image: "img", Resources: Resources{GPUs: 1}, Commands: Commands{Build: []string{"make"}}}, ""},
		{"CRLF line ends", "rai:\r\n  version: 0.1\r\n  commands:\r\n    build:\r\n      - make\r\n", &Section{Version: "0.1", Commands: Commands{Build: []string{"make"}}}, ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s, err := Parse([]byte(tc.src))
			switch {
			case tc.want == nil && err == nil:
				t.Fatalf("accepted as %#v, want error %q", s.RAI, tc.err)
			case tc.want == nil && err.Error() != tc.err:
				t.Fatalf("error %q, want %q", err, tc.err)
			case tc.want != nil && err != nil:
				t.Fatalf("rejected: %v", err)
			case tc.want != nil && !reflect.DeepEqual(s.RAI, *tc.want):
				t.Fatalf("parsed as %#v\nwant %#v", s.RAI, *tc.want)
			case tc.want != nil:
				if back, err := Parse(s.Encode()); err != nil || !reflect.DeepEqual(back, s) {
					t.Fatalf("re-parsing the encoding %q: %#v, %v", s.Encode(), back, err)
				}
			}
		})
	}
}

// TestParseSizeLimit: a spec over MaxSpecBytes is refused before it is
// parsed, with an error naming the limit; one at the limit parses.
func TestParseSizeLimit(t *testing.T) {
	head := "rai:\n  version: 0.1\n  commands:\n    build:\n      - make\n"
	atLimit := head + "#" + strings.Repeat("x", MaxSpecBytes-len(head)-2) + "\n"
	if _, err := Parse([]byte(atLimit)); err != nil {
		t.Fatalf("a %d-byte spec: %v", len(atLimit), err)
	}
	over := atLimit + " "
	_, err := Parse([]byte(over))
	if err == nil || !strings.Contains(err.Error(), "65536-byte limit") {
		t.Fatalf("a %d-byte spec: %v, want an error naming the limit", len(over), err)
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
		seeds = append(seeds, string(s.Encode()))
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
		blob := spec.Encode()
		back, err := Parse(blob)
		if err != nil {
			t.Fatalf("re-parsing the encoding of %+v: %v\n%s", spec, err, blob)
		}
		if !reflect.DeepEqual(spec, back) {
			t.Fatalf("round trip changed the spec:\n%+v\n%+v\nencoded:\n%s", spec, back, blob)
		}
	})
}
