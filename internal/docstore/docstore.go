// Package docstore implements the MongoDB-like document database RAI
// uses for submission metadata, execution times, logs pointers, and
// competition rankings (paper §IV "MongoDB Database").
//
// Documents are schemaless JSON objects stored in named collections.
// Every document carries a string "_id" (auto-generated when absent).
// The query language is the operators RAI sends: a filter tests dotted
// paths for literal equality or with $eq, $ne, $gt, $gte, $lt and $lte;
// an update is $set; a find sorts and limits. Any other operator is
// ErrBadFilter or ErrBadUpdate. String-equality tests on
// top-level fields are answered from hash indexes the engine builds on
// first use (index.go), and UpsertMany applies a batch of upserts as one
// operation. A DB from New lives in memory; one from Open also journals
// every change to a blob backend (journal.go).
//
// Values are normalized through JSON encoding on insertion, so the
// embedded engine and the HTTP service observe identical typing (numbers
// are float64, as in JSON).
package docstore

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"
	"sync"
	"unicode/utf8"
)

// M is a convenience alias for building documents and filters.
type M = map[string]any

// Errors reported by the store.
var (
	ErrNotFound    = errors.New("docstore: document not found")
	ErrDuplicateID = errors.New("docstore: duplicate _id")
	ErrBadFilter   = errors.New("docstore: bad filter")
	ErrBadUpdate   = errors.New("docstore: bad update")
	ErrBadName     = errors.New("docstore: invalid collection name")
	ErrBadDocument = errors.New("docstore: document must be a JSON object")
)

// DB is a multi-collection document database, held in memory and
// journaled when opened over a backend.
type DB struct {
	mu          sync.RWMutex
	collections map[string]*collection
	idSeq       uint64
	j           *journal // nil: memory only
}

// collection is one named set of documents: the _id map, the
// insertion order every scan follows, and the string-equality indexes
// its filters have asked for (index.go).
type collection struct {
	docs    map[string]*entry // _id -> entry
	order   []*entry          // live entries in insertion order
	seq     uint64            // the next entry's insertion number
	indexes map[string]index  // top-level field -> its index
}

// New creates an empty database that lives in memory only.
func New() *DB {
	return &DB{collections: map[string]*collection{}}
}

func validCollection(name string) bool {
	if name == "" || len(name) > 120 || strings.HasPrefix(name, "$") {
		return false
	}
	for _, r := range name {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '_', r == '.', r == '-':
		default:
			return false
		}
	}
	return true
}

// coll returns the named collection, creating it on first use. It
// writes the collections map, so callers hold the write lock; read
// paths use read.
func (db *DB) coll(name string) (*collection, error) {
	if !validCollection(name) {
		return nil, fmt.Errorf("%w: %q", ErrBadName, name)
	}
	c, ok := db.collections[name]
	if !ok {
		c = &collection{docs: map[string]*entry{}}
		db.collections[name] = c
	}
	return c, nil
}

// read runs fn under the read lock on the named collection, with every
// index filter can use built first. It never creates the collection: a
// missing one reads as empty. Building an index needs the write lock,
// so the first query to want one trades locks once.
func (db *DB) read(name string, filter M, fn func(*collection)) error {
	if !validCollection(name) {
		return fmt.Errorf("%w: %q", ErrBadName, name)
	}
	db.mu.RLock()
	c := db.collections[name]
	if c != nil && c.lacksIndex(filter) {
		db.mu.RUnlock()
		db.mu.Lock()
		if c = db.collections[name]; c != nil {
			c.buildIndexes(filter)
		}
		db.mu.Unlock()
		db.mu.RLock()
		c = db.collections[name]
	}
	defer db.mu.RUnlock()
	if c == nil {
		c = &collection{}
	}
	fn(c)
	return nil
}

// normalize returns v as a private document with JSON typing (numbers
// are float64). A map that already holds only what json.Unmarshal
// produces — everything decoded off the wire does — is deep-copied;
// anything else round-trips through JSON.
func normalize(v any) (M, error) {
	if m, ok := v.(map[string]any); ok && m != nil && jsonTyped(m) {
		return deepCopy(m), nil
	}
	raw, err := json.Marshal(v)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadDocument, err)
	}
	var doc M
	if err := json.Unmarshal(raw, &doc); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadDocument, err)
	}
	if doc == nil {
		return nil, ErrBadDocument
	}
	return doc, nil
}

// jsonTyped reports whether a JSON round trip would return v unchanged:
// nil, bools, finite float64s, valid UTF-8 strings, and non-nil maps and
// slices of those.
func jsonTyped(v any) bool {
	switch t := v.(type) {
	case nil, bool:
		return true
	case float64:
		return !math.IsInf(t, 0) && !math.IsNaN(t)
	case string:
		return utf8.ValidString(t)
	case map[string]any:
		if t == nil {
			return false
		}
		for k, e := range t {
			if !utf8.ValidString(k) || !jsonTyped(e) {
				return false
			}
		}
		return true
	case []any:
		if t == nil {
			return false
		}
		for _, e := range t {
			if !jsonTyped(e) {
				return false
			}
		}
		return true
	}
	return false
}

// newID returns a fresh random document id (12 random bytes, hex).
func (db *DB) newID() string {
	var b [12]byte
	if _, err := rand.Read(b[:]); err != nil {
		// Fall back to a counter; rand failure is effectively impossible.
		db.idSeq++
		return fmt.Sprintf("seq%020d", db.idSeq)
	}
	return hex.EncodeToString(b[:])
}

// Every Store verb checks ctx on entry and not again: the engine is
// in-memory, and a mutation that has started always completes, journal
// line included. Filters and updates are checked before any document is
// read, so a malformed one fails the same way whatever the collection
// holds.

// mutate runs fn as one mutation: under db.mu, refused once the journal
// has failed or the database has closed, and with the journal lines fn
// noted written before the lock is released.
func (db *DB) mutate(fn func() error) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	if err := db.j.refused(); err != nil {
		return err
	}
	err := fn()
	if jerr := db.j.commit(); jerr != nil {
		return jerr
	}
	return err
}

// Insert stores doc (any JSON-marshalable object) in the collection and
// returns its _id.
func (db *DB) Insert(ctx context.Context, collName string, doc any) (id string, err error) {
	if err := ctx.Err(); err != nil {
		return "", err
	}
	d, err := normalize(doc)
	if err != nil {
		return "", err
	}
	err = db.mutate(func() error {
		c, err := db.coll(collName)
		if err != nil {
			return err
		}
		id, err = db.insertLocked(c, collName, d)
		return err
	})
	return id, err
}

// insertLocked stores the normalized document d, generating its _id
// when absent. Callers hold db.mu.
func (db *DB) insertLocked(c *collection, collName string, d M) (string, error) {
	id, ok := d["_id"].(string)
	if !ok || id == "" {
		id = db.newID()
		d["_id"] = id
	}
	if _, exists := c.docs[id]; exists {
		return "", fmt.Errorf("%w: %q", ErrDuplicateID, id)
	}
	c.add(id, d)
	db.j.note(collName, id, d)
	return id, nil
}

// FindOpts shapes a query's result set.
type FindOpts struct {
	// Sort lists dotted field paths; a leading '-' sorts descending.
	// Missing fields sort first, then by type (null, numbers, strings,
	// objects, arrays, booleans); numbers and strings by value. Ties
	// keep insertion order.
	Sort  []string
	Limit int // 0 = unlimited
}

// Find returns documents matching filter, in insertion order unless
// sorted. Only the documents returned are copied out, and a sort with a
// limit keeps just the leading Limit matches as it goes (keepTop)
// rather than sorting them all.
func (db *DB) Find(ctx context.Context, collName string, filter M, opts FindOpts) ([]M, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if err := checkFilter(filter); err != nil {
		return nil, err
	}
	keys := sortKeys(opts.Sort)
	keep := max(opts.Limit, 0) // leading results the page needs; 0 = all
	var out []M
	err := db.read(collName, filter, func(c *collection) {
		var hits []M
		cands := c.candidates(filter)
		switch {
		case len(keys) == 0:
			for _, e := range cands {
				if matches(e.doc, filter) {
					hits = append(hits, e.doc)
					if len(hits) == keep {
						break
					}
				}
			}
		case keep > 0:
			// Newest first: a query for the latest few documents, the usual
			// reason to sort with a limit, settles its page early and then
			// reads only the sort key of everything older.
			for i := len(cands) - 1; i >= 0; i-- {
				hits = keepTop(hits, cands[i].doc, filter, keys, keep)
			}
		default:
			for _, e := range cands {
				if matches(e.doc, filter) {
					hits = append(hits, e.doc)
				}
			}
			slices.SortStableFunc(hits, func(a, b M) int { return compareDocs(a, b, keys) })
		}
		if len(hits) == 0 {
			return
		}
		out = make([]M, len(hits))
		for i, d := range hits {
			out[i] = deepCopy(d)
		}
	})
	return out, err
}

// FindOne returns the first match or ErrNotFound.
func (db *DB) FindOne(ctx context.Context, collName string, filter M) (M, error) {
	docs, err := db.Find(ctx, collName, filter, FindOpts{Limit: 1})
	if err != nil {
		return nil, err
	}
	if len(docs) == 0 {
		return nil, ErrNotFound
	}
	return docs[0], nil
}

// matching returns c's entries that match filter, building the indexes
// it can use first. Callers hold db.mu for writing; the result is a
// fresh slice, so they may move entries between buckets as they go.
func (c *collection) matching(filter M) []*entry {
	c.buildIndexes(filter)
	var hits []*entry
	for _, e := range c.candidates(filter) {
		if matches(e.doc, filter) {
			hits = append(hits, e)
		}
	}
	return hits
}

// prepare checks a filter and an update and returns the update
// normalized, as every writer needs before taking the lock.
func prepare(filter, update M) (M, error) {
	if err := checkFilter(filter); err != nil {
		return nil, err
	}
	nupd, err := normalize(update)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadUpdate, err)
	}
	if err := checkUpdate(nupd); err != nil {
		return nil, err
	}
	return nupd, nil
}

// Update applies a $set update to all documents matching filter and
// reports how many changed.
func (db *DB) Update(ctx context.Context, collName string, filter M, update M) (n int, err error) {
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	nupd, err := prepare(filter, update)
	if err != nil {
		return 0, err
	}
	err = db.mutate(func() error {
		c, err := db.coll(collName)
		if err != nil {
			return err
		}
		n, _ = db.updateLocked(c, collName, filter, nupd)
		return nil
	})
	return n, err
}

// updateLocked is Update's body for callers holding db.mu. Besides the
// count it returns the first match's id, which is what Upsert needs to
// finish without a second scan.
func (db *DB) updateLocked(c *collection, collName string, filter, nupd M) (n int, first string) {
	hits := c.matching(filter)
	for _, e := range hits {
		c.update(e, nupd)
		db.j.note(collName, e.id, e.doc)
	}
	if len(hits) > 0 {
		first = hits[0].id
	}
	return len(hits), first
}

// Upsert updates the matches, or inserts update's $set fields merged
// with the filter's equality fields when nothing matches, and returns
// the id of the first match or of the new document. Match-or-insert is
// one critical section, so concurrent upserts of a never-seen key
// produce one document. This is the write the ranking database uses
// ("overwrites existing timing records", paper §V).
func (db *DB) Upsert(ctx context.Context, collName string, filter M, update M) (id string, err error) {
	if err := ctx.Err(); err != nil {
		return "", err
	}
	nupd, seed, err := prepareUpsert(filter, update)
	if err != nil {
		return "", err
	}
	err = db.mutate(func() error {
		id, err = db.upsertLocked(collName, filter, nupd, seed)
		return err
	})
	return id, err
}

// prepareUpsert is prepare for an upsert, plus the document it inserts
// when nothing matches: the filter's top-level equality fields, then
// the update's $set fields. The document takes nupd's values
// without copying them; an upsert either inserts it or copies nupd's
// values into the documents it updates, never both.
func prepareUpsert(filter, update M) (nupd, seed M, err error) {
	if nupd, err = prepare(filter, update); err != nil {
		return nil, nil, err
	}
	lits := M{}
	for k, v := range filter {
		if !strings.HasPrefix(k, "$") && !strings.Contains(k, ".") {
			if _, isOp := v.(map[string]any); !isOp {
				lits[k] = v
			}
		}
	}
	if seed, err = normalize(lits); err != nil {
		return nil, nil, err
	}
	fields, _ := nupd["$set"].(map[string]any)
	for k, v := range fields {
		seed[k] = v
	}
	return nupd, seed, nil
}

// upsertLocked is Upsert's body for callers holding db.mu.
func (db *DB) upsertLocked(collName string, filter, nupd, seed M) (string, error) {
	c, err := db.coll(collName)
	if err != nil {
		return "", err
	}
	if n, first := db.updateLocked(c, collName, filter, nupd); n > 0 {
		return first, nil
	}
	return db.insertLocked(c, collName, seed)
}

// Upsert is one operation of UpsertMany: what Upsert(ctx, Coll, Filter,
// Update) does on its own.
type Upsert struct {
	Coll   string `json:"coll"`
	Filter M      `json:"filter,omitempty"`
	Update M      `json:"update,omitempty"`
}

// UpsertMany applies ops in order as one critical section and returns
// the document id of each. Every op's collection name, filter and update
// is checked before any op is applied, so a malformed op rejects the
// whole batch with nothing written. An op that fails on what the
// collection holds (a filter-pinned _id already taken) stops the batch
// there; the ids returned are those of the ops applied before it.
// The journal lines of the ops applied go to the backend in one write.
func (db *DB) UpsertMany(ctx context.Context, ops []Upsert) (ids []string, err error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	nupds, seeds := make([]M, len(ops)), make([]M, len(ops))
	for i, op := range ops {
		if !validCollection(op.Coll) {
			return nil, fmt.Errorf("bulk op %d: %w: %q", i, ErrBadName, op.Coll)
		}
		var err error
		if nupds[i], seeds[i], err = prepareUpsert(op.Filter, op.Update); err != nil {
			return nil, fmt.Errorf("bulk op %d: %w", i, err)
		}
	}
	err = db.mutate(func() error {
		ids = make([]string, 0, len(ops))
		for i, op := range ops {
			id, err := db.upsertLocked(op.Coll, op.Filter, nupds[i], seeds[i])
			if err != nil {
				return fmt.Errorf("bulk op %d: %w", i, err)
			}
			ids = append(ids, id)
		}
		return nil
	})
	return ids, err
}

// Delete removes matching documents and reports how many. Each leaves
// its own journal line.
func (db *DB) Delete(ctx context.Context, collName string, filter M) (n int, err error) {
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	if err := checkFilter(filter); err != nil {
		return 0, err
	}
	err = db.mutate(func() error {
		c, err := db.coll(collName)
		if err != nil {
			return err
		}
		hits := c.matching(filter)
		if len(hits) == 0 {
			return nil
		}
		for _, e := range hits {
			delete(c.docs, e.id)
			c.removed(e)
			db.j.note(collName, e.id, nil)
		}
		c.order = slices.DeleteFunc(c.order, func(e *entry) bool { return c.docs[e.id] != e })
		n = len(hits)
		return nil
	})
	return n, err
}

// Collections lists collection names, sorted.
func (db *DB) Collections() []string {
	db.mu.RLock()
	defer db.mu.RUnlock()
	out := make([]string, 0, len(db.collections))
	for name := range db.collections {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Decode re-marshals a stored document into a typed struct.
func Decode(doc M, v any) error {
	raw, err := json.Marshal(doc)
	if err != nil {
		return err
	}
	return json.Unmarshal(raw, v)
}

func deepCopy(doc M) M {
	out := make(M, len(doc))
	for k, v := range doc {
		out[k] = copyValue(v)
	}
	return out
}

func copyValue(v any) any {
	switch t := v.(type) {
	case map[string]any:
		out := make(map[string]any, len(t))
		for k, e := range t {
			out[k] = copyValue(e)
		}
		return out
	case []any:
		out := make([]any, len(t))
		for i, e := range t {
			out[i] = copyValue(e)
		}
		return out
	default:
		return v
	}
}
