package docstore

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// fuzzRoutes are the RPC routes FuzzHandler posts to, picked by the
// input's first byte.
var fuzzRoutes = []string{
	"/c/c/insert", "/c/c/find", "/c/c/update",
	"/c/c/upsert", "/c/c/delete", "/bulk",
}

// FuzzHandler posts arbitrary bodies to every RPC route of a fresh
// database holding a few documents. Whatever the body, the handler must
// not panic and must answer a bad request with a 4xx: a 5xx would claim
// the server failed when the client sent garbage. Some seeds use
// operators the language does not have ($or, $in, $exists, $inc, $push),
// so the smoke runs the rejection path too.
func FuzzHandler(f *testing.F) {
	for i, body := range []string{
		`{"doc":{"team":"a","n":1}}`,
		`{"filter":{"team":"a","$or":[{"n":{"$gt":0}},{"tags":{"$in":["x"]}}]},"opts":{"sort":["-n"],"limit":1}}`,
		`{"filter":{"team":{"$exists":true}}}`,
		`{"filter":{"team":"a"},"update":{"$set":{"meta.k":[1]},"$inc":{"n":1e308}}}`,
		`{"filter":{"_id":"d1"},"update":{"$push":{"tags":"y"}}}`,
		`{"filter":{"n":{"$lt":2}}}`,
		`{"ops":[{"coll":"c","filter":{"team":"b"},"update":{"$set":{"n":2}}},{"coll":"d","filter":{"_id":"e"},"update":{"$inc":{"n":1}}}]}`,
	} {
		f.Add(byte(i), []byte(body))
	}
	f.Add(byte(6), []byte(`{"ops":[{"coll":"$bad"}]}`))
	f.Add(byte(3), []byte(`{"filter":{},"update":{"$set":{"_id":"x"}}}`))
	f.Fuzz(func(t *testing.T, route byte, body []byte) {
		db := New()
		for _, doc := range []M{
			{"_id": "d1", "team": "a", "n": 1.0, "tags": []any{"x"}},
			{"_id": "d2", "team": "b", "n": "one", "meta": M{"k": true}},
			{"_id": "d3", "n": 1e308},
		} {
			if _, err := db.Insert(testCtx, "c", doc); err != nil {
				t.Fatal(err)
			}
		}
		path := fuzzRoutes[int(route)%len(fuzzRoutes)]
		req := httptest.NewRequest(http.MethodPost, path, strings.NewReader(string(body)))
		rec := httptest.NewRecorder()
		Handler(db).ServeHTTP(rec, req)
		if rec.Code >= 500 {
			t.Fatalf("POST %s %q = %d: %s", path, body, rec.Code, rec.Body)
		}
	})
}
