package docstore

import (
	"fmt"
	"slices"
	"sort"
	"strings"
)

// checkFilter rejects a malformed filter: a top-level operator, or an
// operator other than the six comparisons. Every verb runs it before
// reading a document, so a bad filter fails the same way whatever the
// collection holds, and matches, which only ever sees checked filters,
// cannot fail.
func checkFilter(filter M) error {
	for path, cond := range filter {
		if strings.HasPrefix(path, "$") {
			return fmt.Errorf("%w: unsupported top-level operator %q", ErrBadFilter, path)
		}
		ops, isOps := cond.(map[string]any)
		if !isOps || !hasOperator(ops) {
			continue
		}
		for op := range ops {
			switch op {
			case "$eq", "$ne", "$gt", "$gte", "$lt", "$lte":
			default:
				return fmt.Errorf("%w: unsupported operator %q (field %q)", ErrBadFilter, op, path)
			}
		}
	}
	return nil
}

// matches evaluates a checked filter against a document. Filter keys
// are dotted paths; values are either literal equality tests or
// operator objects ({"$gt": 3}). An empty filter matches everything.
func matches(doc M, filter M) bool {
	for path, cond := range filter {
		val, present := lookup(doc, path)
		if !matchCond(val, present, cond) {
			return false
		}
	}
	return true
}

// matchCond checks one field condition: operator map or literal equality.
func matchCond(val any, present bool, cond any) bool {
	ops, isOps := cond.(map[string]any)
	if isOps && hasOperator(ops) {
		for op, arg := range ops {
			if !applyOp(op, val, present, arg) {
				return false
			}
		}
		return true
	}
	if !present {
		return cond == nil
	}
	return equalValues(val, cond)
}

func hasOperator(m map[string]any) bool {
	for k := range m {
		if strings.HasPrefix(k, "$") {
			return true
		}
	}
	return false
}

func applyOp(op string, val any, present bool, arg any) bool {
	switch op {
	case "$eq":
		return present && equalValues(val, arg)
	case "$ne":
		return !present || !equalValues(val, arg)
	}
	if !present {
		return false
	}
	c, ok := compareValues(val, arg)
	if !ok {
		return false // incomparable types never match range ops
	}
	switch op {
	case "$gt":
		return c > 0
	case "$gte":
		return c >= 0
	case "$lt":
		return c < 0
	default:
		return c <= 0
	}
}

// lookup resolves a dotted path inside a document.
func lookup(doc M, path string) (any, bool) {
	cur := doc
	for {
		head, rest, dotted := strings.Cut(path, ".")
		v, ok := cur[head]
		if !ok || !dotted {
			return v, ok
		}
		if cur, ok = v.(map[string]any); !ok {
			return nil, false
		}
		path = rest
	}
}

// equalValues compares two JSON-typed values.
func equalValues(a, b any) bool {
	if c, ok := compareValues(a, b); ok {
		return c == 0
	}
	switch at := a.(type) {
	case bool:
		bt, ok := b.(bool)
		return ok && at == bt
	case nil:
		return b == nil
	case []any:
		bt, ok := b.([]any)
		if !ok || len(at) != len(bt) {
			return false
		}
		for i := range at {
			if !equalValues(at[i], bt[i]) {
				return false
			}
		}
		return true
	case map[string]any:
		bt, ok := b.(map[string]any)
		if !ok || len(at) != len(bt) {
			return false
		}
		for k, v := range at {
			bv, ok := bt[k]
			if !ok || !equalValues(v, bv) {
				return false
			}
		}
		return true
	}
	return false
}

// compareValues orders two values when they share a comparable type
// (numbers with numbers, strings with strings).
func compareValues(a, b any) (int, bool) {
	af, aok := toFloat(a)
	bf, bok := toFloat(b)
	if aok && bok {
		switch {
		case af < bf:
			return -1, true
		case af > bf:
			return 1, true
		default:
			return 0, true
		}
	}
	as, aok2 := a.(string)
	bs, bok2 := b.(string)
	if aok2 && bok2 {
		return strings.Compare(as, bs), true
	}
	return 0, false
}

func toFloat(v any) (float64, bool) {
	switch t := v.(type) {
	case float64:
		return t, true
	case float32:
		return float64(t), true
	case int:
		return float64(t), true
	case int64:
		return float64(t), true
	default:
		return 0, false
	}
}

// sortKey is one FindOpts.Sort entry.
type sortKey struct {
	path string
	desc bool
}

func sortKeys(fields []string) []sortKey {
	keys := make([]sortKey, len(fields))
	for i, f := range fields {
		if p, ok := strings.CutPrefix(f, "-"); ok {
			keys[i] = sortKey{path: p, desc: true}
		} else {
			keys[i] = sortKey{path: f}
		}
	}
	return keys
}

// compareDocs orders two documents by keys (see FindOpts.Sort). It is a
// total preorder, so a stable sort and keepTop agree on it.
func compareDocs(a, b M, keys []sortKey) int {
	for _, k := range keys {
		va, pa := lookup(a, k.path)
		vb, pb := lookup(b, k.path)
		c := 0
		switch {
		case !pa || !pb:
			c = boolRank(pa) - boolRank(pb)
		case typeRank(va) != typeRank(vb):
			c = typeRank(va) - typeRank(vb)
		default:
			c, _ = compareValues(va, vb)
		}
		if k.desc {
			c = -c
		}
		if c != 0 {
			return c
		}
	}
	return 0
}

func boolRank(b bool) int {
	if b {
		return 1
	}
	return 0
}

// typeRank orders the JSON types of stored values for sorting as
// MongoDB does: null, numbers, strings, objects, arrays, booleans.
func typeRank(v any) int {
	switch v.(type) {
	case nil:
		return 0
	case float64:
		return 1
	case string:
		return 2
	case map[string]any:
		return 3
	case []any:
		return 4
	case bool:
		return 5
	}
	return 6
}

// keepTop places doc into hits — the first k results, in sort order,
// among candidates inserted after doc — if it matches filter and sorts
// among them, before every result it ties with (ties keep insertion
// order). The sort key is checked first, so a candidate that could not
// make the page is never matched.
func keepTop(hits []M, doc, filter M, keys []sortKey, k int) []M {
	i := sort.Search(len(hits), func(j int) bool { return compareDocs(doc, hits[j], keys) <= 0 })
	if i == k || !matches(doc, filter) {
		return hits
	}
	if len(hits) == k {
		hits = hits[:k-1]
	}
	return slices.Insert(hits, i, doc)
}

// checkUpdate rejects a malformed normalized update — an operator other
// than $set, a non-object operand, a write to _id, which never changes
// (c.docs indexes by it), or two writes to the same path or to a path
// and its parent, whose outcome would depend on map order — before any
// document is touched. A checked update applies to any document.
func checkUpdate(update M) error {
	var paths []string
	for op, arg := range update {
		if op != "$set" {
			return fmt.Errorf("%w: unsupported operator %q", ErrBadUpdate, op)
		}
		fields, ok := arg.(map[string]any)
		if !ok {
			return fmt.Errorf("%w: %s wants an object", ErrBadUpdate, op)
		}
		for path := range fields {
			if head, _, _ := strings.Cut(path, "."); head == "_id" {
				return fmt.Errorf("%w: %s of _id: a document's _id never changes", ErrBadUpdate, op)
			}
			for _, other := range paths {
				if overlaps(path, other) {
					return fmt.Errorf("%w: %s and %s conflict", ErrBadUpdate, path, other)
				}
			}
			paths = append(paths, path)
		}
	}
	return nil
}

// overlaps reports whether two dotted paths are equal or one lies
// inside the other.
func overlaps(p, q string) bool {
	if len(p) > len(q) {
		p, q = q, p
	}
	return strings.HasPrefix(q, p) && (len(q) == len(p) || q[len(p)] == '.')
}

// applyUpdate mutates doc according to the checked, normalized update.
// Values are copied in, so documents never share a nested object with
// each other or with the update.
func applyUpdate(doc M, update M) {
	fields, _ := update["$set"].(map[string]any)
	for path, v := range fields {
		setPath(doc, path, copyValue(v))
	}
}

// setPath writes v at a dotted path, creating intermediate objects.
func setPath(doc M, path string, v any) {
	cur := doc
	for {
		head, rest, dotted := strings.Cut(path, ".")
		if !dotted {
			cur[head] = v
			return
		}
		next, ok := cur[head].(map[string]any)
		if !ok {
			next = map[string]any{}
			cur[head] = next
		}
		cur, path = next, rest
	}
}
