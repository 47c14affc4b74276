package docstore

import (
	"errors"
	"io"
	"net/http"
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
			docs, err := db.Find(testCtx, "c", tc.filter, FindOpts{})
			if err != nil {
				t.Fatal(err)
			}
			if len(docs) != tc.want {
				t.Errorf("matches = %d, want %d", len(docs), tc.want)
			}
		})
	}
}

// TestOrOperatorVariants: $or is not in the filter language; every form
// of it, well-formed or not, is a bad filter.
func TestOrOperatorVariants(t *testing.T) {
	db := New()
	db.Insert(testCtx, "c", M{"team": "a", "rt": 1.0})
	db.Insert(testCtx, "c", M{"team": "b", "rt": 2.0})
	for _, f := range []M{
		{"$or": []M{{"team": "a"}, {"rt": M{"$gt": 1.5}}}},
		{"$or": []any{map[string]any{"team": "a"}}},
		{"$or": "nope"},
		{"$or": []any{"nope"}},
		{"$or": []any{map[string]any{"x": map[string]any{"$bogus": 1}}}},
	} {
		if docs, err := db.Find(testCtx, "c", f, FindOpts{}); !errors.Is(err, ErrBadFilter) {
			t.Errorf("find %v = %v, %v; want ErrBadFilter", f, docs, err)
		}
	}
}

func TestHTTPErrorStatuses(t *testing.T) {
	db := New()
	srv := httptest.NewServer(Handler(db))
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
	// Unknown verbs (count is not served) and a missing collection path.
	for _, tc := range []struct {
		path, want string
		status     int
	}{
		{"/c/c/frobnicate", "unknown verb frobnicate", http.StatusNotFound},
		{"/c/x/count", "unknown verb count", http.StatusNotFound},
		{"/c/", "want /c/{collection}/{verb}", http.StatusBadRequest},
	} {
		resp, err := srv.Client().Post(srv.URL+tc.path, "application/json", strings.NewReader("{}"))
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != tc.status || !strings.Contains(string(body), tc.want) {
			t.Errorf("POST %s = %d %s, want %d %q", tc.path, resp.StatusCode, body, tc.status, tc.want)
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
