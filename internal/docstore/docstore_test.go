package docstore

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
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

// TestFilterOperators: the filter language is literal equality and the
// six comparisons; every other operator is rejected (want -1).
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
		{"in", M{"team": M{"$in": []any{"beta", "gamma"}}}, -1},
		{"exists true", M{"attempt": M{"$exists": true}}, -1},
		{"exists false", M{"grade": M{"$exists": false}}, -1},
		{"prefix", M{"team": M{"$prefix": "a"}}, -1},
		{"or", M{"$or": []any{map[string]any{"team": "beta"}, map[string]any{"team": "delta"}}}, -1},
		{"combined", M{"kind": "final", "runtime": M{"$lt": 1.0}}, 2},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			docs, err := db.Find(testCtx, "submissions", tc.filter, FindOpts{})
			if tc.want < 0 {
				if !errors.Is(err, ErrBadFilter) {
					t.Fatalf("find = %v, %v; want ErrBadFilter", docs, err)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if len(docs) != tc.want {
				t.Errorf("matches = %d, want %d", len(docs), tc.want)
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

// TestSortSkipLimit: a find sorts and limits; there is no skip, which
// TestRemovedFormsRejected shows refused over HTTP.
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
	docs, _ = db.Find(testCtx, "submissions", M{}, FindOpts{Limit: 99})
	if len(docs) != 5 {
		t.Fatalf("limit past the end = %v", docs)
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

// TestUpdateSetIncPush: $set writes top-level and dotted paths; $inc
// and $push are not in the update language, and an update naming one
// changes nothing.
func TestUpdateSetIncPush(t *testing.T) {
	db := New()
	seedSubmissions(t, db)
	n, err := db.Update(testCtx, "submissions", M{"team": "alpha"}, M{
		"$set": M{"graded": true, "meta.grader": "staff1", "attempt": 4},
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
	for _, u := range []M{
		{"$set": M{"graded": false}, "$inc": M{"attempt": 1}},
		{"$set": M{"graded": false}, "$push": M{"history": "again"}},
	} {
		if _, err := db.Update(testCtx, "submissions", M{"team": "alpha"}, u); !errors.Is(err, ErrBadUpdate) {
			t.Errorf("update %v: err = %v, want ErrBadUpdate", u, err)
		}
	}
	if again, _ := db.FindOne(testCtx, "submissions", M{"team": "alpha", "kind": "final"}); !reflect.DeepEqual(again, doc) {
		t.Fatalf("a rejected update changed %v to %v", doc, again)
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

// TestRemovedFormsRejected: the operators raidb's language dropped, and
// a find's skip, are refused over *DB and over HTTP (400), never
// silently ignored, and change nothing.
func TestRemovedFormsRejected(t *testing.T) {
	db := New()
	seedSubmissions(t, db)
	srv := httptest.NewServer(Handler(db))
	defer srv.Close()
	filters := map[string]M{
		"or":     {"$or": []any{map[string]any{"team": "beta"}}},
		"in":     {"team": M{"$in": []any{"beta"}}},
		"exists": {"team": M{"$exists": true}},
		"prefix": {"team": M{"$prefix": "a"}},
	}
	updates := map[string]M{
		"inc":  {"$inc": M{"attempt": 1}},
		"push": {"$push": M{"history": "x"}},
	}
	before, _ := db.Find(testCtx, "submissions", M{}, FindOpts{})
	post := func(verb string, body any) int {
		t.Helper()
		raw, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := srv.Client().Post(srv.URL+"/c/submissions/"+verb, "application/json", strings.NewReader(string(raw)))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	for name, f := range filters {
		t.Run(name, func(t *testing.T) {
			if _, err := db.Find(testCtx, "submissions", f, FindOpts{}); !errors.Is(err, ErrBadFilter) {
				t.Errorf("find: %v, want ErrBadFilter", err)
			}
			if _, err := db.Upsert(testCtx, "submissions", f, M{"$set": M{"x": 1}}); !errors.Is(err, ErrBadFilter) {
				t.Errorf("upsert: %v, want ErrBadFilter", err)
			}
			for _, verb := range []string{"find", "delete"} {
				if code := post(verb, M{"filter": f}); code != http.StatusBadRequest {
					t.Errorf("POST %s = %d, want 400", verb, code)
				}
			}
		})
	}
	for name, u := range updates {
		t.Run(name, func(t *testing.T) {
			if _, err := db.Update(testCtx, "submissions", M{"team": "alpha"}, u); !errors.Is(err, ErrBadUpdate) {
				t.Errorf("update: %v, want ErrBadUpdate", err)
			}
			if _, err := db.Upsert(testCtx, "submissions", M{"team": "omega"}, u); !errors.Is(err, ErrBadUpdate) {
				t.Errorf("upsert: %v, want ErrBadUpdate", err)
			}
			for _, verb := range []string{"update", "upsert"} {
				if code := post(verb, M{"filter": M{"team": "alpha"}, "update": u}); code != http.StatusBadRequest {
					t.Errorf("POST %s = %d, want 400", verb, code)
				}
			}
		})
	}
	t.Run("skip", func(t *testing.T) {
		if code := post("find", M{"filter": M{}, "opts": M{"sort": []string{"runtime"}, "skip": 4}}); code != http.StatusBadRequest {
			t.Errorf("POST find with skip = %d, want 400", code)
		}
	})
	if after, _ := db.Find(testCtx, "submissions", M{}, FindOpts{}); !reflect.DeepEqual(after, before) {
		t.Errorf("rejected requests changed the collection:\n%v\n%v", before, after)
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
	if docs, _ := db.Find(testCtx, "rankings", M{}, FindOpts{}); len(docs) != 1 {
		t.Fatalf("rows = %d, want 1 (no duplicate rows)", len(docs))
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
		if docs, err := s.Find(testCtx, "rankings", M{}, FindOpts{}); err != nil || len(docs) != 1 {
			t.Errorf("rows = %d, %v; want 1", len(docs), err)
		}
		for g, id := range ids {
			if id == "" || id != ids[0] {
				t.Errorf("upsert %d returned id %q, upsert 0 %q", g, id, ids[0])
			}
		}
	}
	t.Run("DB", func(t *testing.T) { race(t, New()) })
	t.Run("journaled", func(t *testing.T) {
		db, dir := openTemp(t)
		race(t, db)
		doc, err := db.FindOne(testCtx, "rankings", M{})
		if err != nil {
			t.Fatal(err)
		}
		again := reopen(t, db, dir)
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
	if docs, _ := db.Find(testCtx, "submissions", M{}, FindOpts{}); len(docs) != 3 {
		t.Fatalf("remaining = %d", len(docs))
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

func TestCollections(t *testing.T) {
	db := New()
	db.Insert(testCtx, "b", M{})
	db.Insert(testCtx, "a", M{})
	if got := db.Collections(); len(got) != 2 || got[0] != "a" || got[1] != "b" {
		t.Fatalf("Collections = %v", got)
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
	srv := httptest.NewServer(Handler(db))
	defer srv.Close()
	c := NewClient(srv.URL)
	seedSubmissions(t, c)

	docs, err := c.Find(testCtx, "submissions", M{"kind": "final"}, FindOpts{})
	if err != nil || len(docs) != 3 {
		t.Fatalf("find final = %v, %v", docs, err)
	}
	docs, err = c.Find(testCtx, "submissions", M{"runtime": M{"$lt": 1.0}}, FindOpts{Sort: []string{"runtime"}})
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
				if docs, err := db.Find(testCtx, coll, M{}, FindOpts{}); err != nil || len(docs) != 0 {
					t.Errorf("unfiltered Find on a fresh DB = %v, %v", docs, err)
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
