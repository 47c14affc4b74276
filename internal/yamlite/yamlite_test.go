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

// get returns the value of key in the mapping n, or nil.
func get(n *Node, key string) *Node {
	if n == nil || n.Kind != KindMap {
		return nil
	}
	for i, k := range n.Keys {
		if k == key {
			return n.Values[i]
		}
	}
	return nil
}

// text returns n's scalar text, or "<kind>" when n is not a scalar.
func text(n *Node) string {
	if n == nil {
		return "<nil>"
	}
	if n.Kind != KindScalar {
		return "<" + n.Kind.String() + ">"
	}
	return n.Value
}

func TestParseListing1(t *testing.T) {
	n, err := Parse([]byte(listing1))
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	rai := get(n, "rai")
	if rai == nil {
		t.Fatal("missing top-level rai key")
	}
	if v := text(get(rai, "version")); v != "0.1" {
		t.Errorf("version = %q, want 0.1", v)
	}
	if img := text(get(rai, "image")); img != "webgpu/rai:root" {
		t.Errorf("image = %q (colon inside value must not split a key)", img)
	}
	build := get(get(rai, "commands"), "build")
	if build == nil || build.Kind != KindSeq {
		t.Fatalf("build commands = %+v", build)
	}
	var cmds []string
	for _, it := range build.Items {
		cmds = append(cmds, text(it))
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

// TestParseScalarTyping: Parse types no scalar. It keeps each one's
// text as written and records whether it was quoted, which is what a
// caller's schema needs to tell a plain null or number from a string.
func TestParseScalarTyping(t *testing.T) {
	n, err := Parse([]byte("a: 3\nb: 2.5\nc: true\nd: ~\ne: hello\nf: \"7\"\ng:\nh: ''\n"))
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	want := map[string]Node{
		"a": {Value: "3"}, "b": {Value: "2.5"}, "c": {Value: "true"}, "d": {Value: "~"},
		"e": {Value: "hello"}, "f": {Value: "7", Quoted: true}, "g": {}, "h": {Quoted: true},
	}
	for i, k := range n.Keys {
		v := n.Values[i]
		if w := want[k]; v.Kind != KindScalar || v.Value != w.Value || v.Quoted != w.Quoted {
			t.Errorf("%s = %s %q quoted=%v, want scalar %q quoted=%v", k, v.Kind, v.Value, v.Quoted, w.Value, w.Quoted)
		}
	}
	if len(n.Keys) != len(want) {
		t.Errorf("keys = %v", n.Keys)
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
	if v := text(get(n, "key")); v != "value" {
		t.Errorf("key = %q", v)
	}
	if v := text(get(n, "url")); v != "http://example.com/#fragment" {
		t.Errorf("url = %q (mid-token # must not start a comment)", v)
	}
	if v := text(get(n, "msg")); v != "quoted # not a comment" {
		t.Errorf("msg = %q", v)
	}
}

func TestParseQuotedScalars(t *testing.T) {
	src := "a: \"line\\nbreak\"\nb: 'it''s'\nc: \"tab\\there\"\n"
	n, err := Parse([]byte(src))
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if v := text(get(n, "a")); v != "line\nbreak" {
		t.Errorf("a = %q", v)
	}
	if v := text(get(n, "b")); v != "it's" {
		t.Errorf("b = %q", v)
	}
	if v := text(get(n, "c")); v != "tab\there" {
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
	jobs := get(n, "jobs")
	if jobs.Kind != KindSeq || len(jobs.Items) != 2 {
		t.Fatalf("jobs = %+v", jobs)
	}
	if v := text(get(jobs.Items[1], "name")); v != "second" {
		t.Errorf("second name = %q", v)
	}
	if v := text(get(jobs.Items[0], "gpu")); v != "1" {
		t.Errorf("first gpu = %q", v)
	}
}

func TestParseLiteralBlock(t *testing.T) {
	src := "script: |\n  line one\n  line two\nafter: yes\n"
	n, err := Parse([]byte(src))
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if v := text(get(n, "script")); v != "line one\nline two\n" {
		t.Errorf("literal block = %q", v)
	}
}

func TestParseFoldedBlock(t *testing.T) {
	src := "script: >\n  word one\n  word two\n"
	n, err := Parse([]byte(src))
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if v := text(get(n, "script")); v != "word one word two\n" {
		t.Errorf("folded block = %q", v)
	}
}

func TestParseLiteralBlockChomp(t *testing.T) {
	src := "a: |-\n  x\nb: ok\n"
	n, err := Parse([]byte(src))
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if v := text(get(n, "a")); v != "x" {
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
		{"duplicate key in a seq item", "- a: 1\n  b: 2\n  a: 3\n", "duplicate"},
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

// TestQuote: whatever string Quote writes as a value, plain or quoted,
// Parse reads back unchanged.
func TestQuote(t *testing.T) {
	for _, v := range []string{
		"hello world", "a: b", "a # b", "#z", "true", "0.1", "", "~", "null",
		"a\nb", "- y", " lead", "trail ", "webgpu/rai:root", "'q'", "[x]", "|x", "-",
	} {
		n, err := Parse([]byte("k: " + Quote(v) + "\n"))
		if err != nil {
			t.Errorf("%q as %q: %v", v, Quote(v), err)
			continue
		}
		if got := text(get(n, "k")); got != v {
			t.Errorf("%q written as %q reads back as %q", v, Quote(v), got)
		}
		n, err = Parse([]byte("- " + Quote(v) + "\n"))
		if err != nil || n.Kind != KindSeq || text(n.Items[0]) != v {
			t.Errorf("%q as a seq item %q: %+v, %v", v, Quote(v), n, err)
		}
	}
	for _, v := range []string{"hello world", "webgpu/rai:root", "-"} {
		if Quote(v) != v {
			t.Errorf("Quote(%q) = %q, want it plain", v, Quote(v))
		}
	}
}

// TestQuoteEscapes: Quote quotes with strconv.Quote, so a value that is
// not printable UTF-8 — like the stray byte FuzzParse found in a plain
// image name of a rai-build.yml — is written with \x, \u or \a-style
// escapes, and Parse must read each back unchanged.
func TestQuoteEscapes(t *testing.T) {
	plain, err := Parse([]byte("image: %\x89\n"))
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range []string{text(get(plain, "image")), "a\x01\a\b\f\vb", "soft\u00adhyphen", "tag \U000e0001"} {
		n, err := Parse([]byte("k: " + Quote(v) + "\n"))
		if err != nil {
			t.Errorf("%q as %q: %v", v, Quote(v), err)
			continue
		}
		if got := text(get(n, "k")); got != v {
			t.Errorf("%q written as %q reads back as %q", v, Quote(v), got)
		}
	}
}
