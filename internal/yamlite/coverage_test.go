package yamlite

import (
	"reflect"
	"testing"
)

func TestKindString(t *testing.T) {
	if KindScalar.String() != "scalar" || KindMap.String() != "map" || KindSeq.String() != "seq" {
		t.Error("Kind.String basics")
	}
	if Kind(9).String() != "Kind(9)" {
		t.Errorf("unknown kind = %q", Kind(9).String())
	}
}

// TestMapKeys: a mapping's keys, and their values, stay in document
// order.
func TestMapKeys(t *testing.T) {
	n, err := Parse([]byte("b: 1\na: 2\n"))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(n.Keys, []string{"b", "a"}) || text(n.Values[0]) != "1" || text(n.Values[1]) != "2" {
		t.Fatalf("Keys = %v, Values = %+v (must preserve document order)", n.Keys, n.Values)
	}
}

func TestTopLevelSequence(t *testing.T) {
	n, err := Parse([]byte("- one\n- two\n- three\n"))
	if err != nil {
		t.Fatal(err)
	}
	if n.Kind != KindSeq || len(n.Items) != 3 || text(n.Items[2]) != "three" {
		t.Fatalf("top-level seq = %+v", n)
	}
}

func TestTopLevelScalar(t *testing.T) {
	n, err := Parse([]byte("just a scalar document\n"))
	if err != nil {
		t.Fatal(err)
	}
	if n.Kind != KindScalar || n.Value != "just a scalar document" {
		t.Fatalf("scalar doc = %+v", n)
	}
}

func TestSequenceWithNestedBlocks(t *testing.T) {
	src := `-
  key: nested
- plain
-
`
	n, err := Parse([]byte(src))
	if err != nil {
		t.Fatal(err)
	}
	if n.Kind != KindSeq || len(n.Items) != 3 {
		t.Fatalf("seq = %+v", n)
	}
	if v := text(get(n.Items[0], "key")); v != "nested" {
		t.Errorf("nested item = %v", n.Items[0])
	}
	if v := text(n.Items[2]); v != "" {
		t.Errorf("empty dash item = %q", v)
	}
}

func TestSplitKeyQuotedColon(t *testing.T) {
	n, err := Parse([]byte(`"key: with colon": value` + "\n"))
	if err != nil {
		t.Fatal(err)
	}
	if v := text(get(n, "key: with colon")); v != "value" {
		t.Fatalf("quoted key = %+v", n)
	}
}

func TestUnescapeDoubleVariants(t *testing.T) {
	n, err := Parse([]byte(`a: "r\rnul\0slash\/qq\""` + "\n"))
	if err != nil {
		t.Fatal(err)
	}
	v := text(get(n, "a"))
	if v != "r\rnul\x00slash/qq\"" {
		t.Fatalf("escapes = %q", v)
	}
	if _, err := Parse([]byte(`a: "dangling\`)); err == nil {
		t.Error("dangling escape accepted")
	}
}

func TestBlockScalarKeepChomp(t *testing.T) {
	n, err := Parse([]byte("a: |+\n  x\nb: 1\n"))
	if err != nil {
		t.Fatal(err)
	}
	if v := text(get(n, "a")); v != "x\n" {
		t.Errorf("keep chomp = %q", v)
	}
	// Empty block scalar.
	n, err = Parse([]byte("a: |\nb: 1\n"))
	if err != nil {
		t.Fatal(err)
	}
	if v := text(get(n, "a")); v != "" {
		t.Errorf("empty literal = %q", v)
	}
}
