package docstore

import (
	"cmp"
	"slices"
	"strings"
)

// String-equality indexes, which the engine builds and maintains itself.
//
// The first filter that tests a top-level field of a collection for
// equality with a string ({"trace_id": "t1"}) builds that collection's
// index on the field, in one pass over its documents; from then on
// every insert, update, upsert and delete keeps it current. _id needs
// none: c.docs is its index. A document sits in a field's index exactly
// while that field holds a string, and equalValues never equates a
// string with anything but the same string, so the bucket of a value
// is exactly the set of documents that pass the test. A filter's
// candidates are the smallest such bucket; matches still decides every
// candidate, so an index changes how many documents a query looks at,
// never which ones it returns. Buckets keep insertion order, so
// results come back in the order a full scan would produce them.

// entry is one stored document with its insertion number, which orders
// scans and index buckets.
type entry struct {
	id  string
	seq uint64
	doc M
}

// index maps a string value to the entries whose field holds it, in
// insertion order.
type index map[string][]*entry

func bySeq(e *entry, seq uint64) int { return cmp.Compare(e.seq, seq) }

// put adds e to v's bucket at its insertion position.
func (idx index) put(v string, e *entry) {
	b := idx[v]
	i, _ := slices.BinarySearchFunc(b, e.seq, bySeq)
	idx[v] = slices.Insert(b, i, e)
}

// drop removes e from v's bucket, and the bucket once it is empty.
func (idx index) drop(v string, e *entry) {
	b := idx[v]
	if i, ok := slices.BinarySearchFunc(b, e.seq, bySeq); ok {
		b = slices.Delete(b, i, i+1)
	}
	if len(b) == 0 {
		delete(idx, v)
		return
	}
	idx[v] = b
}

// indexable reports whether a checked filter's condition on field is an
// equality with a string that a field index answers, and the string.
func indexable(field string, cond any) (string, bool) {
	v, ok := cond.(string)
	if !ok || field == "_id" || strings.Contains(field, ".") {
		return "", false
	}
	return v, true
}

// lacksIndex reports whether filter tests a field c has no index on.
func (c *collection) lacksIndex(filter M) bool {
	for field, cond := range filter {
		if _, ok := indexable(field, cond); ok {
			if _, built := c.indexes[field]; !built {
				return true
			}
		}
	}
	return false
}

// buildIndexes builds, in one pass each, the index of every field
// filter tests that c has none on yet. Callers hold db.mu for writing.
func (c *collection) buildIndexes(filter M) {
	for field, cond := range filter {
		if _, ok := indexable(field, cond); !ok {
			continue
		}
		if _, built := c.indexes[field]; built {
			continue
		}
		idx := index{}
		for _, e := range c.order {
			if v, ok := e.doc[field].(string); ok {
				idx[v] = append(idx[v], e)
			}
		}
		if c.indexes == nil {
			c.indexes = map[string]index{}
		}
		c.indexes[field] = idx
	}
}

// candidates returns, in insertion order, a superset of filter's
// matches: the one document its _id names, the smallest bucket among
// its indexed string equalities, or every entry.
func (c *collection) candidates(filter M) []*entry {
	if id, ok := filter["_id"].(string); ok {
		if e := c.docs[id]; e != nil {
			return []*entry{e}
		}
		return nil
	}
	var best []*entry
	found := false
	for field, cond := range filter {
		v, ok := indexable(field, cond)
		idx, built := c.indexes[field]
		if !ok || !built {
			continue
		}
		if b := idx[v]; !found || len(b) < len(best) {
			best, found = b, true
		}
	}
	if found {
		return best
	}
	return c.order
}

// add stores the document d under id as the newest entry: last in the
// scan order and at the end of its index buckets.
func (c *collection) add(id string, d M) {
	e := &entry{id: id, seq: c.seq, doc: d}
	c.seq++
	c.docs[id] = e
	c.order = append(c.order, e)
	for field, idx := range c.indexes {
		if v, ok := d[field].(string); ok {
			idx[v] = append(idx[v], e)
		}
	}
}

// removed drops e from every index.
func (c *collection) removed(e *entry) {
	for field, idx := range c.indexes {
		if v, ok := e.doc[field].(string); ok {
			idx.drop(v, e)
		}
	}
}

// update applies the checked, normalized update, which fits e's
// document (updateFits), and moves e between the buckets of every index
// whose value it changed.
func (c *collection) update(e *entry, nupd M) {
	type was struct {
		field, v string
		ok       bool
	}
	var buf [4]was
	before := buf[:0]
	for field := range c.indexes {
		v, ok := e.doc[field].(string)
		before = append(before, was{field, v, ok})
	}
	applyUpdate(e.doc, nupd)
	for _, w := range before {
		v, ok := e.doc[w.field].(string)
		if ok == w.ok && v == w.v {
			continue
		}
		idx := c.indexes[w.field]
		if w.ok {
			idx.drop(w.v, e)
		}
		if ok {
			idx.put(v, e)
		}
	}
}
