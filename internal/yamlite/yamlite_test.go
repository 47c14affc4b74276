package yamlite

import (
	"reflect"
	"strings"
	"testing"
)

// listing1 is the paper's Listing 1: the default rai-build.yml used by
// Applied Parallel Programming, including the multi-line command split.
const listing1 = `rai:
  version: 0.1
  image: webgpu/rai:root
  commands:
    build:
      - echo "Building project"
      - cmake /src
      - make
      - ./ece408 /data/test10.hdf5 /data/model.hdf5
      - nvprof --export-profile timeline.nvprof
          ./ece408 data/test10.hdf5 /data/model.hdf5
`

func TestParseListing1(t *testing.T) {
	n, err := Parse([]byte(listing1))
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	rai := n.Get("rai")
	if rai == nil {
		t.Fatal("missing top-level rai key")
	}
	if v, _ := rai.Get("version").Scalar(); v != "0.1" {
		t.Errorf("version = %q, want 0.1", v)
	}
	if img, _ := rai.Get("image").Scalar(); img != "webgpu/rai:root" {
		t.Errorf("image = %q (colon inside value must not split a key)", img)
	}
	cmds, err := rai.Get("commands").Get("build").StringList()
	if err != nil {
		t.Fatalf("build commands: %v", err)
	}
	want := []string{
		`echo "Building project"`,
		"cmake /src",
		"make",
		"./ece408 /data/test10.hdf5 /data/model.hdf5",
		"nvprof --export-profile timeline.nvprof ./ece408 data/test10.hdf5 /data/model.hdf5",
	}
	if !reflect.DeepEqual(cmds, want) {
		t.Errorf("commands = %#v\nwant %#v", cmds, want)
	}
}

func TestParseScalarTyping(t *testing.T) {
	n, err := Parse([]byte("a: 3\nb: 2.5\nc: true\nd: ~\ne: hello\nf: \"7\"\n"))
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	m := n.Interface().(map[string]any)
	if m["a"] != int64(3) {
		t.Errorf("a = %#v, want int64(3)", m["a"])
	}
	if m["b"] != 2.5 {
		t.Errorf("b = %#v, want 2.5", m["b"])
	}
	if m["c"] != true {
		t.Errorf("c = %#v, want true", m["c"])
	}
	if m["d"] != nil {
		t.Errorf("d = %#v, want nil", m["d"])
	}
	if m["e"] != "hello" {
		t.Errorf("e = %#v, want hello", m["e"])
	}
	if m["f"] != "7" {
		t.Errorf("quoted f = %#v, want string 7", m["f"])
	}
}

func TestParseComments(t *testing.T) {
	src := `# leading comment
key: value # trailing comment
url: http://example.com/#fragment
msg: "quoted # not a comment"
`
	n, err := Parse([]byte(src))
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if v, _ := n.Get("key").Scalar(); v != "value" {
		t.Errorf("key = %q", v)
	}
	if v, _ := n.Get("url").Scalar(); v != "http://example.com/#fragment" {
		t.Errorf("url = %q (mid-token # must not start a comment)", v)
	}
	if v, _ := n.Get("msg").Scalar(); v != "quoted # not a comment" {
		t.Errorf("msg = %q", v)
	}
}

func TestParseQuotedScalars(t *testing.T) {
	src := "a: \"line\\nbreak\"\nb: 'it''s'\nc: \"tab\\there\"\n"
	n, err := Parse([]byte(src))
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if v, _ := n.Get("a").Scalar(); v != "line\nbreak" {
		t.Errorf("a = %q", v)
	}
	if v, _ := n.Get("b").Scalar(); v != "it's" {
		t.Errorf("b = %q", v)
	}
	if v, _ := n.Get("c").Scalar(); v != "tab\there" {
		t.Errorf("c = %q", v)
	}
}

func TestParseSeqOfMaps(t *testing.T) {
	src := `jobs:
  - name: first
    gpu: 1
  - name: second
    gpu: 2
`
	n, err := Parse([]byte(src))
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	jobs := n.Get("jobs")
	if jobs.Kind != KindSeq || len(jobs.Items) != 2 {
		t.Fatalf("jobs = %+v", jobs)
	}
	if v, _ := jobs.Items[1].Get("name").Scalar(); v != "second" {
		t.Errorf("second name = %q", v)
	}
	if v, _ := jobs.Items[0].Get("gpu").Scalar(); v != "1" {
		t.Errorf("first gpu = %q", v)
	}
}

func TestParseLiteralBlock(t *testing.T) {
	src := "script: |\n  line one\n  line two\nafter: yes\n"
	n, err := Parse([]byte(src))
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if v, _ := n.Get("script").Scalar(); v != "line one\nline two\n" {
		t.Errorf("literal block = %q", v)
	}
}

func TestParseFoldedBlock(t *testing.T) {
	src := "script: >\n  word one\n  word two\n"
	n, err := Parse([]byte(src))
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if v, _ := n.Get("script").Scalar(); v != "word one word two\n" {
		t.Errorf("folded block = %q", v)
	}
}

func TestParseLiteralBlockChomp(t *testing.T) {
	src := "a: |-\n  x\nb: ok\n"
	n, err := Parse([]byte(src))
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if v, _ := n.Get("a").Scalar(); v != "x" {
		t.Errorf("chomped literal = %q", v)
	}
}

func TestParseErrors(t *testing.T) {
	cases := []struct {
		name string
		src  string
		want string
	}{
		{"tab indent", "a:\n\tb: 1\n", "tab"},
		{"duplicate key", "a: 1\na: 2\n", "duplicate"},
		{"anchor", "a: &x 1\n", "anchor"},
		{"alias", "a: *x\n", "anchor"},
		{"tag", "a: !!str hi\n", "tags"},
		{"flow map", "a: {b: 1}\n", "flow"},
		{"flow seq", "a: [1, 2]\n", "flow"},
		{"unterminated dquote", "a: \"oops\n", "unterminated"},
		{"unterminated squote", "a: 'oops\n", "unterminated"},
		{"bad escape", `a: "\q"`, "escape"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Parse([]byte(tc.src))
			if err == nil {
				t.Fatalf("Parse(%q) succeeded, want error containing %q", tc.src, tc.want)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not contain %q", err, tc.want)
			}
		})
	}
}

func TestParseEmpty(t *testing.T) {
	for _, src := range []string{"", "\n\n", "# only comments\n", "---\n"} {
		n, err := Parse([]byte(src))
		if err != nil {
			t.Fatalf("Parse(%q): %v", src, err)
		}
		if n.Kind != KindMap || len(n.Keys) != 0 {
			t.Fatalf("Parse(%q) = %+v, want empty map", src, n)
		}
	}
}

type buildFile struct {
	RAI struct {
		Version  string              `yaml:"version"`
		Image    string              `yaml:"image"`
		Commands map[string][]string `yaml:"commands"`
	} `yaml:"rai"`
}

func TestUnmarshalStruct(t *testing.T) {
	var bf buildFile
	if err := Unmarshal([]byte(listing1), &bf); err != nil {
		t.Fatalf("Unmarshal: %v", err)
	}
	if bf.RAI.Version != "0.1" {
		t.Errorf("version = %q", bf.RAI.Version)
	}
	if bf.RAI.Image != "webgpu/rai:root" {
		t.Errorf("image = %q", bf.RAI.Image)
	}
	if len(bf.RAI.Commands["build"]) != 5 {
		t.Errorf("build commands = %d, want 5", len(bf.RAI.Commands["build"]))
	}
}

func TestUnmarshalUnknownKeyRejected(t *testing.T) {
	var bf buildFile
	err := Unmarshal([]byte("rai:\n  version: 0.1\n  bogus: 1\n"), &bf)
	if err == nil || !strings.Contains(err.Error(), "unknown key") {
		t.Fatalf("want unknown-key error, got %v", err)
	}
}

func TestUnmarshalScalarKinds(t *testing.T) {
	type tgt struct {
		S  string  `yaml:"s"`
		I  int     `yaml:"i"`
		U  uint16  `yaml:"u"`
		F  float64 `yaml:"f"`
		B  bool    `yaml:"b"`
		P  *int    `yaml:"p"`
		A  any     `yaml:"a"`
		L  []int   `yaml:"l"`
		Sk int     `yaml:"-"`
	}
	src := "s: hi\ni: -4\nu: 65000\nf: 1.5\nb: true\np: 9\na: [0]\nl:\n  - 1\n  - 2\n"
	// flow seq for 'a' is rejected; use nested instead
	src = "s: hi\ni: -4\nu: 65000\nf: 1.5\nb: true\np: 9\na: free\nl:\n  - 1\n  - 2\n"
	var v tgt
	if err := Unmarshal([]byte(src), &v); err != nil {
		t.Fatalf("Unmarshal: %v", err)
	}
	if v.S != "hi" || v.I != -4 || v.U != 65000 || v.F != 1.5 || !v.B {
		t.Errorf("scalars = %+v", v)
	}
	if v.P == nil || *v.P != 9 {
		t.Errorf("pointer = %v", v.P)
	}
	if v.A != "free" {
		t.Errorf("any = %#v", v.A)
	}
	if !reflect.DeepEqual(v.L, []int{1, 2}) {
		t.Errorf("list = %v", v.L)
	}
}

func TestUnmarshalOverflow(t *testing.T) {
	type tgt struct {
		U uint8 `yaml:"u"`
	}
	var v tgt
	if err := Unmarshal([]byte("u: 300\n"), &v); err == nil {
		t.Fatal("want overflow error for uint8 = 300")
	}
}

func TestUnmarshalTargetMustBePointer(t *testing.T) {
	var v buildFile
	if err := Unmarshal([]byte("a: 1"), v); err == nil {
		t.Fatal("non-pointer target must error")
	}
}

func TestMarshalRoundTrip(t *testing.T) {
	var bf buildFile
	if err := Unmarshal([]byte(listing1), &bf); err != nil {
		t.Fatalf("Unmarshal: %v", err)
	}
	out, err := Marshal(&bf)
	if err != nil {
		t.Fatalf("Marshal: %v", err)
	}
	var bf2 buildFile
	if err := Unmarshal(out, &bf2); err != nil {
		t.Fatalf("re-Unmarshal of %q: %v", out, err)
	}
	if !reflect.DeepEqual(bf, bf2) {
		t.Errorf("round trip mismatch:\n%+v\n%+v\nencoded:\n%s", bf, bf2, out)
	}
}

func TestMarshalQuoting(t *testing.T) {
	m := map[string]any{
		"plain":  "hello world",
		"colon":  "a: b",
		"hash":   "a # b",
		"bool":   "true",
		"number": "0.1",
		"empty":  "",
		"multi":  "a\nb",
	}
	out, err := Marshal(m)
	if err != nil {
		t.Fatalf("Marshal: %v", err)
	}
	var back map[string]any
	if err := Unmarshal(out, &back); err != nil {
		t.Fatalf("Unmarshal(%q): %v", out, err)
	}
	for k, want := range m {
		if back[k] != want {
			t.Errorf("key %s: got %#v, want %#v\nencoded:\n%s", k, back[k], want, out)
		}
	}
}

// TestMarshalQuotingEscapes: Marshal quotes with strconv.Quote, so a
// value that is not printable UTF-8 — like the stray byte FuzzParse
// found in a plain image name of a rai-build.yml — is written with \x,
// \u or \a-style escapes, and Parse must read each back unchanged.
func TestMarshalQuotingEscapes(t *testing.T) {
	var plain map[string]any
	if err := Unmarshal([]byte("image: %\x89\n"), &plain); err != nil {
		t.Fatal(err)
	}
	m := map[string]any{
		"byte":    plain["image"],
		"control": "a\x01\a\b\f\vb",
		"format":  "soft\u00adhyphen",
		"astral":  "tag \U000e0001",
	}
	out, err := Marshal(m)
	if err != nil {
		t.Fatalf("Marshal: %v", err)
	}
	var back map[string]any
	if err := Unmarshal(out, &back); err != nil {
		t.Fatalf("Unmarshal(%q): %v", out, err)
	}
	if !reflect.DeepEqual(back, m) {
		t.Errorf("round trip mismatch:\n%q\n%q\nencoded:\n%s", m, back, out)
	}
}

func TestMarshalDeterministicMapOrder(t *testing.T) {
	m := map[string]int{"z": 1, "a": 2, "m": 3}
	a, err := Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		b, err := Marshal(m)
		if err != nil {
			t.Fatal(err)
		}
		if string(a) != string(b) {
			t.Fatalf("non-deterministic marshal:\n%s\n%s", a, b)
		}
	}
	if !strings.HasPrefix(string(a), "a: 2\n") {
		t.Errorf("keys not sorted: %s", a)
	}
}

func TestNodeAccessorsOnWrongKinds(t *testing.T) {
	n, err := Parse([]byte("a: 1\n"))
	if err != nil {
		t.Fatal(err)
	}
	if n.Get("missing") != nil {
		t.Error("Get(missing) != nil")
	}
	if _, ok := n.Scalar(); ok {
		t.Error("map reported as scalar")
	}
	if _, err := n.StringList(); err == nil {
		t.Error("StringList on map must error")
	}
	var nilNode *Node
	if nilNode.Get("x") != nil {
		t.Error("nil.Get != nil")
	}
	if l, err := nilNode.StringList(); err != nil || l != nil {
		t.Error("nil.StringList should be empty, nil error")
	}
}

func TestInterfaceNested(t *testing.T) {
	src := `top:
  list:
    - 1
    - two
  inner:
    x: false
`
	n, err := Parse([]byte(src))
	if err != nil {
		t.Fatal(err)
	}
	v := n.Interface().(map[string]any)
	top := v["top"].(map[string]any)
	list := top["list"].([]any)
	if list[0] != int64(1) || list[1] != "two" {
		t.Errorf("list = %#v", list)
	}
	if top["inner"].(map[string]any)["x"] != false {
		t.Errorf("inner.x = %#v", top["inner"])
	}
}
