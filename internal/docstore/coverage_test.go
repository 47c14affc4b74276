package docstore

import (
	"errors"
	"net/http/httptest"
	"strings"
	"testing"
)

func TestEqualValuesDeep(t *testing.T) {
	db := New()
	db.Insert(testCtx, "c", M{
		"tags":   []any{"gpu", "cuda"},
		"nested": M{"a": 1, "b": true},
		"flag":   true,
		"none":   nil,
	})
	cases := []struct {
		name   string
		filter M
		want   int
	}{
		{"array equal", M{"tags": []any{"gpu", "cuda"}}, 1},
		{"array order matters", M{"tags": []any{"cuda", "gpu"}}, 0},
		{"array length", M{"tags": []any{"gpu"}}, 0},
		{"object equal", M{"nested": M{"a": 1, "b": true}}, 1},
		{"object differs", M{"nested": M{"a": 2, "b": true}}, 0},
		{"object extra key", M{"nested": M{"a": 1}}, 0},
		{"bool equal", M{"flag": true}, 1},
		{"bool differs", M{"flag": false}, 0},
		{"null equal", M{"none": nil}, 1},
		{"dotted path", M{"nested.a": 1}, 1},
		{"dotted path miss", M{"nested.z": 1}, 0},
		{"dotted through scalar", M{"flag.sub": 1}, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			n, err := db.Count(testCtx, "c", tc.filter)
			if err != nil {
				t.Fatal(err)
			}
			if n != tc.want {
				t.Errorf("count = %d, want %d", n, tc.want)
			}
		})
	}
}

func TestOrOperatorVariants(t *testing.T) {
	db := New()
	db.Insert(testCtx, "c", M{"team": "a", "rt": 1.0})
	db.Insert(testCtx, "c", M{"team": "b", "rt": 2.0})
	db.Insert(testCtx, "c", M{"team": "c", "rt": 3.0})
	// []M form (built in Go).
	n, err := db.Count(testCtx, "c", M{"$or": []M{{"team": "a"}, {"rt": M{"$gt": 2.5}}}})
	if err != nil || n != 2 {
		t.Fatalf("[]M or = %d, %v", n, err)
	}
	// Bad forms.
	if _, err := db.Count(testCtx, "c", M{"$or": "nope"}); !errors.Is(err, ErrBadFilter) {
		t.Errorf("scalar $or: %v", err)
	}
	if _, err := db.Count(testCtx, "c", M{"$or": []any{"nope"}}); !errors.Is(err, ErrBadFilter) {
		t.Errorf("non-filter element: %v", err)
	}
	// Nested error inside an alternative propagates.
	if _, err := db.Count(testCtx, "c", M{"$or": []any{map[string]any{"x": map[string]any{"$bogus": 1}}}}); !errors.Is(err, ErrBadFilter) {
		t.Errorf("nested bad op: %v", err)
	}
}

func TestHTTPErrorStatuses(t *testing.T) {
	db := New()
	srv := httptest.NewServer(Handler(db, nil))
	defer srv.Close()
	c := NewClient(srv.URL)

	// Duplicate id -> conflict surfaces as error.
	if _, err := c.Insert(testCtx, "c", M{"_id": "x"}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Insert(testCtx, "c", M{"_id": "x"}); err == nil || !strings.Contains(err.Error(), "duplicate") {
		t.Errorf("duplicate over HTTP: %v", err)
	}
	// Bad filter -> bad request error text.
	if _, err := c.Find(testCtx, "c", M{"v": M{"$bogus": 1}}, FindOpts{}); err == nil {
		t.Error("bad filter over HTTP accepted")
	}
	// Bad collection name.
	if _, err := c.Insert(testCtx, "$sys", M{}); err == nil {
		t.Error("bad collection over HTTP accepted")
	}
	// Bad update.
	if _, err := c.Update(testCtx, "c", M{"_id": "x"}, M{"$explode": M{}}); err == nil {
		t.Error("bad update over HTTP accepted")
	}
	// Unknown verb and missing collection path.
	for _, p := range []string{"/c/c/frobnicate", "/c/"} {
		resp, err := srv.Client().Post(srv.URL+p, "application/json", strings.NewReader("{}"))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode < 400 {
			t.Errorf("POST %s = %d", p, resp.StatusCode)
		}
	}
	// GET is rejected.
	resp, err := srv.Client().Get(srv.URL + "/c/c/find")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 405 {
		t.Errorf("GET = %d", resp.StatusCode)
	}
	// Malformed JSON body.
	resp, err = srv.Client().Post(srv.URL+"/c/c/find", "application/json", strings.NewReader("{oops"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 400 {
		t.Errorf("bad JSON = %d", resp.StatusCode)
	}
}

func TestIDsUnique(t *testing.T) {
	db := New()
	seen := map[string]bool{}
	for i := 0; i < 200; i++ {
		id, err := db.Insert(testCtx, "c", M{"i": i})
		if err != nil {
			t.Fatal(err)
		}
		if seen[id] {
			t.Fatalf("duplicate generated id %q", id)
		}
		seen[id] = true
	}
}
