package docstore

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"

	"rai/internal/telemetry"
)

// refDB is the engine the indexed DB must be observationally equivalent
// to: documents in a slice in insertion order, every query a full scan
// and every sort a full stable sort. It shares only the per-document
// semantics (matches, applyUpdate, compareDocs, normalize) with DB.
type refDB struct{ docs []M }

func (r *refDB) find(filter M, opts FindOpts) []M {
	var out []M
	for _, d := range r.docs {
		if matches(d, filter) {
			out = append(out, d)
		}
	}
	if len(opts.Sort) > 0 {
		keys := sortKeys(opts.Sort)
		slices.SortStableFunc(out, func(a, b M) int { return compareDocs(a, b, keys) })
	}
	if opts.Limit > 0 && len(out) > opts.Limit {
		out = out[:opts.Limit]
	}
	return out
}

func (r *refDB) has(id string) bool {
	return slices.ContainsFunc(r.docs, func(d M) bool { return d["_id"] == id })
}

// update changes every match.
func (r *refDB) update(filter, nupd M) (n int, first string) {
	for _, d := range r.docs {
		if matches(d, filter) {
			applyUpdate(d, nupd)
			if n++; n == 1 {
				first = d["_id"].(string)
			}
		}
	}
	return n, first
}

// upsert mirrors DB.Upsert; newID is the id the engine reported, which
// must be fresh when the reference inserts without a filter-pinned id.
func (r *refDB) upsert(filter, update M, newID string) (string, error) {
	nupd, err := normalize(update)
	if err != nil {
		return "", err
	}
	if n, first := r.update(filter, nupd); n > 0 {
		return first, nil
	}
	seed := M{}
	for k, v := range filter {
		if _, isOp := v.(map[string]any); !isOp && !strings.HasPrefix(k, "$") && !strings.Contains(k, ".") {
			seed[k] = v
		}
	}
	fields, _ := nupd["$set"].(map[string]any)
	for k, v := range fields {
		seed[k] = v
	}
	d, err := normalize(seed)
	if err != nil {
		return "", err
	}
	id, ok := d["_id"].(string)
	if !ok || id == "" {
		id = newID
		d["_id"] = id
	}
	if r.has(id) {
		return "", ErrDuplicateID
	}
	r.docs = append(r.docs, d)
	return id, nil
}

func (r *refDB) delete(filter M) int {
	kept := r.docs[:0]
	for _, d := range r.docs {
		if !matches(d, filter) {
			kept = append(kept, d)
		}
	}
	n := len(r.docs) - len(kept)
	r.docs = kept
	return n
}

// gen draws documents, filters and updates over a small key space, so
// ops collide: fields a and b are what string-equality filters test, and
// they also take numbers, null, arrays, objects and booleans, or are
// missing; n is numeric; _id comes from eight values.
type gen struct{ *rand.Rand }

var genStrings = []any{"x", "y", "z", ""}

func (g gen) value() any {
	switch g.Intn(10) {
	case 0, 1, 2, 3, 4:
		return genStrings[g.Intn(len(genStrings))]
	case 5:
		return float64(g.Intn(3))
	case 6:
		return nil
	case 7:
		return []any{"x"}
	case 8:
		return map[string]any{"k": "x"}
	default:
		return true
	}
}

func (g gen) id() string { return fmt.Sprintf("d%d", g.Intn(8)) }

func (g gen) doc() M {
	d := M{}
	for _, f := range []string{"a", "b"} {
		if g.Intn(4) > 0 {
			d[f] = g.value()
		}
	}
	if g.Intn(4) > 0 {
		d["n"] = float64(g.Intn(5))
	}
	if g.Intn(3) == 0 {
		d["_id"] = g.id()
	}
	return d
}

func (g gen) cond() any {
	switch g.Intn(9) {
	case 0, 1, 2:
		return genStrings[g.Intn(len(genStrings))]
	case 3:
		return M{"$ne": g.value()}
	case 4:
		return M{"$eq": g.value()}
	case 5:
		return M{"$lte": genStrings[g.Intn(len(genStrings))]}
	case 6:
		return M{"$gte": genStrings[g.Intn(len(genStrings))]}
	case 7:
		return M{"$lt": float64(g.Intn(4))}
	default:
		return g.value()
	}
}

func (g gen) filter() M {
	f := M{}
	for i := g.Intn(3); i > 0; i-- {
		switch field := []string{"a", "b", "a", "b", "n", "_id", "a.k"}[g.Intn(7)]; field {
		case "_id":
			if g.Intn(2) == 0 {
				f[field] = g.id()
			} else {
				f[field] = M{"$ne": g.id()}
			}
		default:
			f[field] = g.cond()
		}
	}
	if g.Intn(5) == 0 {
		f["n"] = M{"$gte": float64(g.Intn(4)), "$lte": float64(g.Intn(5))}
	}
	return f
}

// update draws well-formed updates: $set of non-overlapping paths, which
// may write through a field of another type.
func (g gen) update() M {
	fields := []string{"a", "b", "n", "a.k", "o.k"}
	set := M{}
draw:
	for i := 1 + g.Intn(2); i > 0; i-- {
		path := fields[g.Intn(len(fields))]
		for other := range set {
			if overlaps(path, other) {
				continue draw
			}
		}
		set[path] = g.value()
	}
	return M{"$set": set}
}

func (g gen) opts() FindOpts {
	sorts := [][]string{nil, nil, {"a"}, {"-n"}, {"b", "-a"}, {"-a", "n"}}
	return FindOpts{Sort: sorts[g.Intn(len(sorts))], Limit: g.Intn(4)}
}

// checkIndexes asserts c's indexes hold exactly the entries whose field
// is a string, under that string, in insertion order.
func checkIndexes(t *testing.T, c *collection) {
	t.Helper()
	for field, idx := range c.indexes {
		want := index{}
		for _, e := range c.order {
			if v, ok := e.doc[field].(string); ok {
				want[v] = append(want[v], e)
			}
		}
		if !reflect.DeepEqual(idx, want) {
			t.Fatalf("index on %q drifted from the documents", field)
		}
	}
}

// TestIndexedEngineMatchesScan: random op sequences over a small key
// space leave the indexed DB and the scanning reference in the same
// state, with the same answer to every query and the same count or id
// from every write, after every op.
func TestIndexedEngineMatchesScan(t *testing.T) {
	const coll = "c"
	for seed := int64(1); seed <= 24; seed++ {
		g := gen{rand.New(rand.NewSource(seed))}
		db, ref := New(), &refDB{}
		for step := 0; step < 300; step++ {
			fail := func(format string, args ...any) {
				t.Helper()
				t.Fatalf("seed %d step %d: %s", seed, step, fmt.Sprintf(format, args...))
			}
			switch op := g.Intn(10); {
			case op < 3:
				doc := g.doc()
				id, err := db.Insert(testCtx, coll, doc)
				if id, ok := doc["_id"].(string); ok && ref.has(id) {
					if !errors.Is(err, ErrDuplicateID) {
						fail("insert of taken id %s: %v", id, err)
					}
					break
				}
				if err != nil || ref.has(id) {
					fail("insert %v = %q, %v", doc, id, err)
				}
				d, _ := normalize(doc)
				d["_id"] = id
				ref.docs = append(ref.docs, d)
			case op < 5:
				filter, update := g.filter(), g.update()
				n, err := db.Update(testCtx, coll, filter, update)
				nupd, _ := normalize(update)
				if wn, _ := ref.update(filter, nupd); n != wn || err != nil {
					fail("update %v %v = %d, %v; reference %d", filter, update, n, err, wn)
				}
			case op < 7:
				filter, update := g.filter(), g.update()
				id, err := db.Upsert(testCtx, coll, filter, update)
				wid, werr := ref.upsert(filter, update, id)
				if id != wid || (err == nil) != (werr == nil) {
					fail("upsert %v %v = %q, %v; reference %q, %v", filter, update, id, err, wid, werr)
				}
			case op < 8:
				var ops []Upsert
				for i := 1 + g.Intn(4); i > 0; i-- {
					ops = append(ops, Upsert{Coll: coll, Filter: g.filter(), Update: g.update()})
				}
				if g.Intn(6) == 0 {
					ops[g.Intn(len(ops))].Update = M{"$rename": M{"a": "b"}}
					if ids, err := db.UpsertMany(testCtx, ops); !errors.Is(err, ErrBadUpdate) || len(ids) != 0 {
						fail("bulk with a malformed op = %v, %v", ids, err)
					}
					break
				}
				ids, err := db.UpsertMany(testCtx, ops)
				var werr error
				for i, op := range ops {
					var got string
					if i < len(ids) {
						got = ids[i]
					}
					wid, e := ref.upsert(op.Filter, op.Update, got)
					if e != nil {
						werr = e
						if len(ids) != i {
							fail("bulk stopped at op %d on the reference, engine applied %d", i, len(ids))
						}
						break
					}
					if wid != got {
						fail("bulk op %d id %q; reference %q", i, got, wid)
					}
				}
				if (err == nil) != (werr == nil) {
					fail("bulk err %v; reference %v", err, werr)
				}
			case op < 9:
				filter := g.filter()
				n, err := db.Delete(testCtx, coll, filter)
				if wn := ref.delete(filter); err != nil || n != wn {
					fail("delete %v = %d, %v; reference %d", filter, n, err, wn)
				}
			}
			all, err := db.Find(testCtx, coll, M{}, FindOpts{})
			if err != nil || !reflect.DeepEqual(all, ref.find(M{}, FindOpts{})) {
				fail("state %v (%v) differs from reference %v", all, err, ref.docs)
			}
			for q := 0; q < 4; q++ {
				filter, opts := g.filter(), g.opts()
				docs, err := db.Find(testCtx, coll, filter, opts)
				if want := ref.find(filter, opts); err != nil || !reflect.DeepEqual(docs, want) {
					fail("find %v %+v = %v, %v; reference %v", filter, opts, docs, err, want)
				}
				one, err := db.FindOne(testCtx, coll, filter)
				want := ref.find(filter, FindOpts{Limit: 1})
				if len(want) == 0 && !errors.Is(err, ErrNotFound) || len(want) == 1 && !reflect.DeepEqual(one, want[0]) {
					fail("findOne %v = %v, %v; reference %v", filter, one, err, want)
				}
			}
			if c := db.collections[coll]; c != nil {
				checkIndexes(t, c)
			}
		}
		c := db.collections[coll]
		if c == nil || c.indexes["a"] == nil || c.indexes["b"] == nil {
			t.Fatalf("seed %d: the run never built the indexes it was meant to exercise", seed)
		}
	}
}

// TestConcurrentIndexBuilds: readers that find an index missing trade
// their read lock for the write lock to build it, while writers keep
// every built index current. Run under -race: the indexes end exact,
// and every query agrees with a scan of the final state.
func TestConcurrentIndexBuilds(t *testing.T) {
	db := New()
	for i := 0; i < 200; i++ {
		db.Insert(testCtx, "jobs", M{"user": fmt.Sprintf("u%d", i%5), "team": fmt.Sprintf("t%d", i%3), "n": float64(i)})
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				field := []string{"user", "team", "kind"}[(g+i)%3]
				switch g % 2 {
				case 0:
					if _, err := db.Find(testCtx, "jobs", M{field: fmt.Sprintf("%c%d", field[0], i%5)}, FindOpts{Sort: []string{"-n"}, Limit: 2}); err != nil {
						t.Error(err)
					}
				default:
					if _, err := db.Upsert(testCtx, "jobs", M{"n": float64(i)}, M{"$set": M{field: fmt.Sprintf("%c%d", field[0], g)}}); err != nil {
						t.Error(err)
					}
					if _, err := db.Delete(testCtx, "jobs", M{"user": fmt.Sprintf("u%d", g), "n": M{"$gt": 150.0}}); err != nil {
						t.Error(err)
					}
				}
			}
		}(g)
	}
	wg.Wait()
	c := db.collections["jobs"]
	checkIndexes(t, c)
	for _, field := range []string{"user", "team", "kind"} {
		if c.indexes[field] == nil {
			t.Fatalf("no index on %s", field)
		}
		for v := range c.indexes[field] {
			docs, _ := db.Find(testCtx, "jobs", M{field: v}, FindOpts{})
			n := len(docs)
			scan := 0
			for _, e := range c.order {
				if e.doc[field] == v {
					scan++
				}
			}
			if n != scan {
				t.Errorf("count %s=%s is %d, scan %d", field, v, n, scan)
			}
		}
	}
}

// TestNormalizeCopiesWhatJSONWouldKeep: normalize skips the JSON round
// trip only for values the round trip returns unchanged, so both paths
// store the same document.
func TestNormalizeCopiesWhatJSONWouldKeep(t *testing.T) {
	roundTrip := func(v any) (M, error) {
		var doc M
		raw, err := json.Marshal(v)
		if err == nil {
			err = json.Unmarshal(raw, &doc)
		}
		return doc, err
	}
	g := gen{rand.New(rand.NewSource(408))}
	inputs := []any{
		M{"s": "bad \xff utf-8"}, M{"\xff": 1.0}, M{"i": 3}, M{"m": map[string]any(nil)},
		M{"a": []any(nil)}, M{"n": M{"deep": []any{1.0, "x", nil, true, M{}}}}, M{"neg0": -0.0},
	}
	for i := 0; i < 200; i++ {
		inputs = append(inputs, g.doc(), g.update())
	}
	for _, in := range inputs {
		got, err := normalize(in)
		want, werr := roundTrip(in)
		if err != nil || werr != nil || !reflect.DeepEqual(got, want) {
			t.Errorf("normalize(%#v) = %#v, %v; JSON round trip %#v, %v", in, got, err, want, werr)
		}
	}
	if _, err := normalize(M(nil)); !errors.Is(err, ErrBadDocument) {
		t.Errorf("nil document: %v", err)
	}
	if _, err := normalize(M{"x": math.NaN()}); !errors.Is(err, ErrBadDocument) {
		t.Errorf("NaN: %v", err)
	}
}

// TestMalformedRejectedBeforeReading: filters and updates are checked
// before any document is read, so a malformed one fails the same way on
// every collection, empty or not.
func TestMalformedRejectedBeforeReading(t *testing.T) {
	db := New()
	bad := M{"a": "x", "b": M{"$in": "notarray"}}
	if _, err := db.Find(testCtx, "missing", bad, FindOpts{}); !errors.Is(err, ErrBadFilter) {
		t.Errorf("find on a missing collection: %v", err)
	}
	if _, err := db.Upsert(testCtx, "c", bad, M{"$set": M{"v": 1}}); !errors.Is(err, ErrBadFilter) {
		t.Errorf("upsert: %v", err)
	}
	if docs, _ := db.Find(testCtx, "c", M{}, FindOpts{}); len(docs) != 0 {
		t.Errorf("a rejected upsert inserted %d documents", len(docs))
	}
	for _, u := range []M{
		{"$set": M{"_id": "other"}},
		{"$set": M{"a": 1, "a.k": 2}},
		{"$set": M{"o": 1, "o.k.x": 2}},
	} {
		if _, err := db.Update(testCtx, "c", M{}, u); !errors.Is(err, ErrBadUpdate) {
			t.Errorf("update %v: %v", u, err)
		}
	}
	if _, err := db.Update(testCtx, "c", M{}, M{"$set": M{"a.k": 1, "a.kk": 2, "b": 3}}); err != nil {
		t.Errorf("sibling paths rejected: %v", err)
	}
}

// TestUpsertManyJournalReplays: what UpsertMany wrote — one journal line
// per applied op, including a batch that stopped part way — replays to
// the same documents, in the same order, under the same ids.
func TestUpsertManyJournalReplays(t *testing.T) {
	db, dir := openTemp(t)
	span := func(id, name string) Upsert {
		return Upsert{Coll: "traces", Filter: M{"trace_id": "t1", "span_id": id}, Update: M{"$set": M{"name": name}}}
	}
	batches := [][]Upsert{
		{span("s1", "job"), span("s2", "upload"), {Coll: "events", Filter: M{"_id": "ev-1"}, Update: M{"$set": M{"msg": "hi"}}}},
		{span("s1", "job"), span("s3", "enqueue"), {Coll: "events", Filter: M{"_id": "ev-1"}, Update: M{"$set": M{"seen": 1}}}},
		// Stops at op 1 (it would insert a second ev-1): op 0 is applied
		// and journaled.
		{span("s4", "dequeue"), {Coll: "events", Filter: M{"_id": "ev-1", "msg": "bye"}, Update: M{"$set": M{"seen": 2}}}, span("s5", "never")},
	}
	var ids []string
	for i, ops := range batches {
		got, err := db.UpsertMany(testCtx, ops)
		if (err != nil) != (i == 2) {
			t.Fatalf("batch %d: %v", i, err)
		}
		ids = append(ids, got...)
	}
	if len(ids) != 7 || ids[0] != ids[3] || ids[2] != "ev-1" || ids[5] != "ev-1" {
		t.Fatalf("ids = %v", ids)
	}
	state := func(s Store) [][]M {
		var out [][]M
		for _, coll := range []string{"traces", "events"} {
			docs, err := s.Find(testCtx, coll, M{}, FindOpts{})
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, docs)
		}
		return out
	}
	before := state(db)
	if len(before[0]) != 4 || before[1][0]["seen"] != 1.0 {
		t.Fatalf("state before replay = %v", before)
	}
	again := reopen(t, db, dir)
	if after := state(again); !reflect.DeepEqual(after, before) {
		t.Fatalf("replayed state %v, want %v", after, before)
	}
}

// TestHTTPBulk: the bulk route upserts a batch in one request, and a
// batch with one malformed op returns 400 and writes nothing.
func TestHTTPBulk(t *testing.T) {
	db := New()
	reg := telemetry.NewRegistry()
	srv := httptest.NewServer(Handler(db, WithTelemetry(reg)))
	defer srv.Close()
	c := NewClient(srv.URL)
	ops := []Upsert{
		{Coll: "traces", Filter: M{"trace_id": "t1", "span_id": "s1"}, Update: M{"$set": M{"name": "job"}}},
		{Coll: "events", Filter: M{"_id": "ev-1"}, Update: M{"$set": M{"msg": "hi"}}},
	}
	first, err := c.UpsertMany(testCtx, ops)
	if err != nil || len(first) != 2 || first[1] != "ev-1" {
		t.Fatalf("bulk = %v, %v", first, err)
	}
	again, err := c.UpsertMany(testCtx, ops)
	if err != nil || !reflect.DeepEqual(again, first) {
		t.Fatalf("repeated bulk = %v, %v; want the same ids %v", again, err, first)
	}
	if v, ok := reg.Value("rai_docstore_requests_total", telemetry.L("verb", "bulk")); !ok || v != 2 {
		t.Errorf("bulk requests counted = %v, %v", v, ok)
	}

	for name, body := range map[string]string{
		"bad update": `{"ops":[{"coll":"x","filter":{"k":"1"},"update":{"$set":{"v":1}}},{"coll":"x","filter":{},"update":{"$bogus":{}}}]}`,
		"bad filter": `{"ops":[{"coll":"x","filter":{"k":"1"},"update":{"$set":{"v":1}}},{"coll":"x","filter":{"k":{"$in":3}},"update":{}}]}`,
		"bad name":   `{"ops":[{"coll":"x","filter":{"k":"1"},"update":{"$set":{"v":1}}},{"coll":"$x","filter":{},"update":{}}]}`,
	} {
		resp, err := srv.Client().Post(srv.URL+"/bulk", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", name, resp.StatusCode)
		}
		if docs, _ := db.Find(testCtx, "x", M{}, FindOpts{}); len(docs) != 0 {
			t.Errorf("%s: the rejected batch wrote %d documents", name, len(docs))
		}
	}
	resp, err := srv.Client().Post(srv.URL+"/c/x/bulk", "application/json", strings.NewReader("{}"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bulk under /c/ = %d, want 400", resp.StatusCode)
	}
}
