package docstore

import (
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"testing/quick"
)

func seedSubmissions(t *testing.T, s Store) {
	t.Helper()
	rows := []M{
		{"team": "alpha", "runtime": 0.45, "kind": "final", "attempt": 3},
		{"team": "beta", "runtime": 0.62, "kind": "final", "attempt": 1},
		{"team": "gamma", "runtime": 1.9, "kind": "dev", "attempt": 7},
		{"team": "delta", "runtime": 120.0, "kind": "final", "attempt": 2},
		{"team": "alpha", "runtime": 0.51, "kind": "dev", "attempt": 2},
	}
	for _, r := range rows {
		if _, err := s.Insert(testCtx, "submissions", r); err != nil {
			t.Fatal(err)
		}
	}
}

func TestInsertFindOne(t *testing.T) {
	db := New()
	id, err := db.Insert(testCtx, "runs", M{"team": "alpha", "runtime": 0.45})
	if err != nil {
		t.Fatal(err)
	}
	if id == "" {
		t.Fatal("empty id")
	}
	doc, err := db.FindOne(testCtx, "runs", M{"_id": id})
	if err != nil {
		t.Fatal(err)
	}
	if doc["team"] != "alpha" || doc["runtime"] != 0.45 {
		t.Fatalf("doc = %v", doc)
	}
}

func TestInsertExplicitAndDuplicateID(t *testing.T) {
	db := New()
	if _, err := db.Insert(testCtx, "c", M{"_id": "fixed", "v": 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Insert(testCtx, "c", M{"_id": "fixed", "v": 2}); !errors.Is(err, ErrDuplicateID) {
		t.Errorf("duplicate insert: %v", err)
	}
}

func TestInsertStructNormalizes(t *testing.T) {
	type rec struct {
		Team    string  `json:"team"`
		Runtime float64 `json:"runtime"`
	}
	db := New()
	if _, err := db.Insert(testCtx, "c", rec{Team: "x", Runtime: 2}); err != nil {
		t.Fatal(err)
	}
	doc, err := db.FindOne(testCtx, "c", M{"team": "x"})
	if err != nil || doc["runtime"] != 2.0 {
		t.Fatalf("doc = %v, %v", doc, err)
	}
}

func TestFilterOperators(t *testing.T) {
	db := New()
	seedSubmissions(t, db)
	cases := []struct {
		name   string
		filter M
		want   int
	}{
		{"all", M{}, 5},
		{"eq literal", M{"team": "alpha"}, 2},
		{"eq op", M{"team": M{"$eq": "alpha"}}, 2},
		{"ne", M{"kind": M{"$ne": "final"}}, 2},
		{"gt", M{"runtime": M{"$gt": 1.0}}, 2},
		{"gte", M{"runtime": M{"$gte": 0.62}}, 3},
		{"lt", M{"runtime": M{"$lt": 0.5}}, 1},
		{"lte", M{"attempt": M{"$lte": 2}}, 3},
		{"range", M{"runtime": M{"$gte": 0.4, "$lt": 1.0}}, 3},
		{"in", M{"team": M{"$in": []any{"beta", "gamma"}}}, 2},
		{"exists true", M{"attempt": M{"$exists": true}}, 5},
		{"exists false", M{"grade": M{"$exists": false}}, 5},
		{"prefix", M{"team": M{"$prefix": "a"}}, 2},
		{"or", M{"$or": []any{map[string]any{"team": "beta"}, map[string]any{"team": "delta"}}}, 2},
		{"combined", M{"kind": "final", "runtime": M{"$lt": 1.0}}, 2},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			n, err := db.Count(testCtx, "submissions", tc.filter)
			if err != nil {
				t.Fatal(err)
			}
			if n != tc.want {
				t.Errorf("count = %d, want %d", n, tc.want)
			}
		})
	}
}

func TestBadFilter(t *testing.T) {
	db := New()
	seedSubmissions(t, db)
	for _, f := range []M{
		{"x": M{"$bogus": 1}},
		{"$and": []any{}},
		{"x": M{"$in": "notarray"}},
		{"x": M{"$exists": "yes"}},
	} {
		if _, err := db.Find(testCtx, "submissions", f, FindOpts{}); !errors.Is(err, ErrBadFilter) {
			t.Errorf("filter %v: err = %v", f, err)
		}
	}
}

func TestSortSkipLimit(t *testing.T) {
	db := New()
	seedSubmissions(t, db)
	docs, err := db.Find(testCtx, "submissions", M{}, FindOpts{Sort: []string{"runtime"}, Limit: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(docs) != 3 || docs[0]["runtime"] != 0.45 || docs[2]["runtime"] != 0.62 {
		t.Fatalf("sorted = %v", docs)
	}
	docs, _ = db.Find(testCtx, "submissions", M{}, FindOpts{Sort: []string{"-runtime"}, Limit: 1})
	if docs[0]["runtime"] != 120.0 {
		t.Fatalf("desc sort head = %v", docs[0])
	}
	docs, _ = db.Find(testCtx, "submissions", M{}, FindOpts{Sort: []string{"runtime"}, Skip: 4})
	if len(docs) != 1 || docs[0]["runtime"] != 120.0 {
		t.Fatalf("skip = %v", docs)
	}
	docs, _ = db.Find(testCtx, "submissions", M{}, FindOpts{Skip: 99})
	if len(docs) != 0 {
		t.Fatalf("skip past end = %v", docs)
	}
}

func TestMultiKeySort(t *testing.T) {
	db := New()
	seedSubmissions(t, db)
	docs, err := db.Find(testCtx, "submissions", M{}, FindOpts{Sort: []string{"team", "-attempt"}})
	if err != nil {
		t.Fatal(err)
	}
	if docs[0]["team"] != "alpha" || docs[0]["attempt"] != 3.0 {
		t.Fatalf("head = %v", docs[0])
	}
	if docs[1]["team"] != "alpha" || docs[1]["attempt"] != 2.0 {
		t.Fatalf("second = %v", docs[1])
	}
}

func TestUpdateSetIncPush(t *testing.T) {
	db := New()
	seedSubmissions(t, db)
	n, err := db.Update(testCtx, "submissions", M{"team": "alpha"}, M{
		"$set":  M{"graded": true, "meta.grader": "staff1"},
		"$inc":  M{"attempt": 1},
		"$push": M{"history": "regraded"},
	})
	if err != nil || n != 2 {
		t.Fatalf("update n=%d err=%v", n, err)
	}
	doc, _ := db.FindOne(testCtx, "submissions", M{"team": "alpha", "kind": "final"})
	if doc["graded"] != true || doc["attempt"] != 4.0 {
		t.Fatalf("doc = %v", doc)
	}
	if meta, ok := doc["meta"].(map[string]any); !ok || meta["grader"] != "staff1" {
		t.Fatalf("nested set = %v", doc["meta"])
	}
	if hist, ok := doc["history"].([]any); !ok || len(hist) != 1 || hist[0] != "regraded" {
		t.Fatalf("push = %v", doc["history"])
	}
	// Second push appends.
	db.Update(testCtx, "submissions", M{"team": "alpha", "kind": "final"}, M{"$push": M{"history": "again"}})
	doc, _ = db.FindOne(testCtx, "submissions", M{"team": "alpha", "kind": "final"})
	if hist := doc["history"].([]any); len(hist) != 2 {
		t.Fatalf("second push = %v", hist)
	}
}

func TestBadUpdate(t *testing.T) {
	db := New()
	seedSubmissions(t, db)
	for _, u := range []M{
		{"$bogus": M{"a": 1}},
		{"$inc": M{"team": 1}},
		{"$push": M{"team": "x"}},
		{"$set": "notobject"},
	} {
		if _, err := db.Update(testCtx, "submissions", M{"team": "alpha"}, u); !errors.Is(err, ErrBadUpdate) {
			t.Errorf("update %v: err = %v", u, err)
		}
	}
}

func TestUpsert(t *testing.T) {
	db := New()
	// Insert path: the ranking record does not exist yet.
	id, err := db.Upsert(testCtx, "rankings", M{"team": "alpha"}, M{"$set": M{"runtime": 0.5}})
	if err != nil || id == "" {
		t.Fatalf("upsert insert: %q, %v", id, err)
	}
	doc, _ := db.FindOne(testCtx, "rankings", M{"team": "alpha"})
	if doc["runtime"] != 0.5 {
		t.Fatalf("doc = %v", doc)
	}
	// Update path: overwrite the timing record (paper §V).
	id2, err := db.Upsert(testCtx, "rankings", M{"team": "alpha"}, M{"$set": M{"runtime": 0.43}})
	if err != nil || id2 != id {
		t.Fatalf("upsert update: %q vs %q, %v", id2, id, err)
	}
	if n, _ := db.Count(testCtx, "rankings", M{}); n != 1 {
		t.Fatalf("count = %d, want 1 (no duplicate rows)", n)
	}
	doc, _ = db.FindOne(testCtx, "rankings", M{"team": "alpha"})
	if doc["runtime"] != 0.43 {
		t.Fatalf("overwritten doc = %v", doc)
	}
}

// TestUpsertConcurrentNewKey: match-or-insert is one critical section,
// so racing upserts of a never-seen key make one document and all
// report its id — in memory, and through the journal and its replay.
func TestUpsertConcurrentNewKey(t *testing.T) {
	race := func(t *testing.T, s Store) {
		t.Helper()
		const workers = 16
		ids := make([]string, workers)
		start := make(chan struct{})
		var wg sync.WaitGroup
		for g := 0; g < workers; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				<-start
				id, err := s.Upsert(testCtx, "rankings", M{"team": "alpha"}, M{"$set": M{"runtime": float64(g)}})
				if err != nil {
					t.Errorf("upsert %d: %v", g, err)
				}
				ids[g] = id
			}(g)
		}
		close(start)
		wg.Wait()
		if n, err := s.Count(testCtx, "rankings", M{}); err != nil || n != 1 {
			t.Errorf("count = %d, %v; want 1", n, err)
		}
		for g, id := range ids {
			if id == "" || id != ids[0] {
				t.Errorf("upsert %d returned id %q, upsert 0 %q", g, id, ids[0])
			}
		}
	}
	t.Run("DB", func(t *testing.T) { race(t, New()) })
	t.Run("PersistentDB", func(t *testing.T) {
		db, path := openTemp(t)
		race(t, db)
		doc, err := db.FindOne(testCtx, "rankings", M{})
		if err != nil {
			t.Fatal(err)
		}
		again := reopen(t, db, path)
		docs, err := again.Find(testCtx, "rankings", M{}, FindOpts{})
		if err != nil || len(docs) != 1 || docs[0]["_id"] != doc["_id"] {
			t.Errorf("replayed journal = %v, %v; want the one document %v", docs, err, doc["_id"])
		}
	})
}

func TestDelete(t *testing.T) {
	db := New()
	seedSubmissions(t, db)
	n, err := db.Delete(testCtx, "submissions", M{"kind": "dev"})
	if err != nil || n != 2 {
		t.Fatalf("delete n=%d err=%v", n, err)
	}
	if n, _ := db.Count(testCtx, "submissions", M{}); n != 3 {
		t.Fatalf("remaining = %d", n)
	}
	// Deterministic scan order survives deletion.
	docs, _ := db.Find(testCtx, "submissions", M{}, FindOpts{})
	if docs[0]["team"] != "alpha" || docs[2]["team"] != "delta" {
		t.Fatalf("order after delete = %v", docs)
	}
}

func TestFindReturnsCopies(t *testing.T) {
	db := New()
	db.Insert(testCtx, "c", M{"_id": "x", "nested": M{"v": 1}})
	doc, _ := db.FindOne(testCtx, "c", M{"_id": "x"})
	doc["nested"].(map[string]any)["v"] = 999.0
	again, _ := db.FindOne(testCtx, "c", M{"_id": "x"})
	if again["nested"].(map[string]any)["v"] != 1.0 {
		t.Error("Find returned aliased document")
	}
}

func TestCollectionsAndDrop(t *testing.T) {
	db := New()
	db.Insert(testCtx, "b", M{})
	db.Insert(testCtx, "a", M{})
	if got := db.Collections(); len(got) != 2 || got[0] != "a" {
		t.Fatalf("Collections = %v", got)
	}
	db.Drop("a")
	if got := db.Collections(); len(got) != 1 || got[0] != "b" {
		t.Fatalf("after drop = %v", got)
	}
}

func TestBadCollectionNames(t *testing.T) {
	db := New()
	for _, name := range []string{"", "$sys", "has space", "semi;"} {
		if _, err := db.Insert(testCtx, name, M{}); !errors.Is(err, ErrBadName) {
			t.Errorf("Insert(%q) = %v", name, err)
		}
	}
}

func TestBadDocument(t *testing.T) {
	db := New()
	if _, err := db.Insert(testCtx, "c", []int{1, 2}); !errors.Is(err, ErrBadDocument) {
		t.Errorf("array document: %v", err)
	}
	if _, err := db.Insert(testCtx, "c", make(chan int)); !errors.Is(err, ErrBadDocument) {
		t.Errorf("unmarshalable: %v", err)
	}
}

func TestDecode(t *testing.T) {
	db := New()
	db.Insert(testCtx, "c", M{"team": "x", "runtime": 1.5})
	doc, _ := db.FindOne(testCtx, "c", M{"team": "x"})
	var rec struct {
		Team    string  `json:"team"`
		Runtime float64 `json:"runtime"`
	}
	if err := Decode(doc, &rec); err != nil || rec.Team != "x" || rec.Runtime != 1.5 {
		t.Fatalf("Decode = %+v, %v", rec, err)
	}
}

// Property: for a set of docs with random runtimes, Find with a $lt
// filter returns exactly those below the bound.
func TestQuickRangeFilter(t *testing.T) {
	f := func(runtimes []float64, boundRaw float64) bool {
		db := New()
		for _, r := range runtimes {
			if r != r { // skip NaN: JSON cannot carry it
				continue
			}
			if _, err := db.Insert(testCtx, "c", M{"v": r}); err != nil {
				return false
			}
		}
		bound := boundRaw
		if bound != bound {
			bound = 0
		}
		docs, err := db.Find(testCtx, "c", M{"v": M{"$lt": bound}}, FindOpts{})
		if err != nil {
			return false
		}
		want := 0
		for _, r := range runtimes {
			if r == r && r < bound {
				want++
			}
		}
		return len(docs) == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestHTTPClientMirrorsDB(t *testing.T) {
	db := New()
	srv := httptest.NewServer(Handler(db, nil))
	defer srv.Close()
	c := NewClient(srv.URL)
	seedSubmissions(t, c)

	n, err := c.Count(testCtx, "submissions", M{"kind": "final"})
	if err != nil || n != 3 {
		t.Fatalf("count = %d, %v", n, err)
	}
	docs, err := c.Find(testCtx, "submissions", M{"runtime": M{"$lt": 1.0}}, FindOpts{Sort: []string{"runtime"}})
	if err != nil || len(docs) != 3 {
		t.Fatalf("find = %v, %v", docs, err)
	}
	if docs[0]["team"] != "alpha" {
		t.Fatalf("sorted head = %v", docs[0])
	}
	if _, err := c.Update(testCtx, "submissions", M{"team": "beta"}, M{"$set": M{"graded": true}}); err != nil {
		t.Fatal(err)
	}
	doc, err := c.FindOne(testCtx, "submissions", M{"team": "beta"})
	if err != nil || doc["graded"] != true {
		t.Fatalf("after update: %v, %v", doc, err)
	}
	id, err := c.Upsert(testCtx, "rankings", M{"team": "beta"}, M{"$set": M{"runtime": 0.62}})
	if err != nil || id == "" {
		t.Fatalf("upsert: %q, %v", id, err)
	}
	if _, err := c.Delete(testCtx, "submissions", M{"team": "gamma"}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.FindOne(testCtx, "submissions", M{"team": "gamma"}); !errors.Is(err, ErrNotFound) {
		t.Fatalf("deleted doc: %v", err)
	}
}

func TestHTTPAuth(t *testing.T) {
	db := New()
	auth := func(ak, sig string, r *http.Request) bool { return ak == "staff" }
	srv := httptest.NewServer(Handler(db, auth))
	defer srv.Close()
	c := NewClient(srv.URL)
	if _, err := c.Insert(testCtx, "c", M{"v": 1}); err == nil {
		t.Fatal("unauthenticated insert succeeded")
	}
	c.Sign = func(r *http.Request) { r.Header.Set(HeaderAccessKey, "staff") }
	if _, err := c.Insert(testCtx, "c", M{"v": 1}); err != nil {
		t.Fatalf("authenticated insert: %v", err)
	}
}

// TestConcurrentFirstFinds: read paths run under the read lock, so they
// must not create the collection they miss — N goroutines issuing the
// first Find/FindOne/Count against a fresh DB used to write the
// collections map concurrently ("concurrent map read and map write"
// killed raidb at boot). A missing collection reads as empty and stays
// missing.
func TestConcurrentFirstFinds(t *testing.T) {
	for round := 0; round < 50; round++ {
		db := New()
		start := make(chan struct{})
		var wg sync.WaitGroup
		for g := 0; g < 16; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				<-start
				coll := fmt.Sprintf("c%d", g%4)
				if docs, err := db.Find(testCtx, coll, M{"k": 1}, FindOpts{}); err != nil || len(docs) != 0 {
					t.Errorf("Find on a fresh DB = %v, %v", docs, err)
				}
				if _, err := db.FindOne(testCtx, coll, M{}); !errors.Is(err, ErrNotFound) {
					t.Errorf("FindOne on a fresh DB: %v", err)
				}
				if n, err := db.Count(testCtx, coll, M{}); err != nil || n != 0 {
					t.Errorf("Count on a fresh DB = %d, %v", n, err)
				}
			}(g)
		}
		close(start)
		wg.Wait()
		if got := db.Collections(); len(got) != 0 {
			t.Fatalf("reads created collections %v", got)
		}
	}
	if _, err := New().Find(testCtx, "bad name!", M{}, FindOpts{}); !errors.Is(err, ErrBadName) {
		t.Errorf("Find with an invalid collection name: %v", err)
	}
}
