package docstore

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"
)

// checkFilter rejects a malformed filter: an unknown operator, or an
// operator argument of the wrong shape. Every verb runs it before
// reading a document, so a bad filter fails the same way whatever the
// collection holds, and matches, which only ever sees checked filters,
// cannot fail.
func checkFilter(filter M) error {
	for path, cond := range filter {
		if strings.HasPrefix(path, "$") {
			if path != "$or" {
				return fmt.Errorf("%w: unsupported top-level operator %q", ErrBadFilter, path)
			}
			if err := checkOr(cond); err != nil {
				return err
			}
			continue
		}
		ops, isOps := cond.(map[string]any)
		if !isOps || !hasOperator(ops) {
			continue
		}
		for op, arg := range ops {
			if err := checkOp(op, arg); err != nil {
				return fmt.Errorf("%w (field %q)", err, path)
			}
		}
	}
	return nil
}

func checkOr(cond any) error {
	switch alts := cond.(type) {
	case []M:
		for _, alt := range alts {
			if err := checkFilter(alt); err != nil {
				return err
			}
		}
		return nil
	case []any:
		for _, alt := range alts {
			sub, ok := alt.(map[string]any)
			if !ok {
				return fmt.Errorf("%w: $or element is not a filter", ErrBadFilter)
			}
			if err := checkFilter(sub); err != nil {
				return err
			}
		}
		return nil
	}
	return fmt.Errorf("%w: $or wants an array of filters", ErrBadFilter)
}

func checkOp(op string, arg any) error {
	switch op {
	case "$exists":
		if _, ok := arg.(bool); !ok {
			return fmt.Errorf("%w: $exists wants a bool", ErrBadFilter)
		}
	case "$in":
		if _, ok := arg.([]any); !ok {
			return fmt.Errorf("%w: $in wants an array", ErrBadFilter)
		}
	case "$eq", "$ne", "$gt", "$gte", "$lt", "$lte", "$prefix":
	default:
		return fmt.Errorf("%w: unsupported operator %q", ErrBadFilter, op)
	}
	return nil
}

// matches evaluates a checked Mongo-style filter against a document.
// Filter keys are dotted paths; values are either literal equality
// tests or operator objects ({"$gt": 3}). An empty filter matches
// everything.
func matches(doc M, filter M) bool {
	for path, cond := range filter {
		if path == "$or" {
			if !matchOr(doc, cond) {
				return false
			}
			continue
		}
		val, present := lookup(doc, path)
		if !matchCond(val, present, cond) {
			return false
		}
	}
	return true
}

func matchOr(doc M, cond any) bool {
	switch alts := cond.(type) {
	case []M:
		for _, alt := range alts {
			if matches(doc, alt) {
				return true
			}
		}
	case []any:
		for _, alt := range alts {
			if sub, ok := alt.(map[string]any); ok && matches(doc, sub) {
				return true
			}
		}
	}
	return false
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
	case "$exists":
		want, _ := arg.(bool)
		return present == want
	case "$eq":
		return present && equalValues(val, arg)
	case "$ne":
		return !present || !equalValues(val, arg)
	case "$gt", "$gte", "$lt", "$lte":
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
	case "$in":
		list, _ := arg.([]any)
		return present && slices.ContainsFunc(list, func(item any) bool { return equalValues(val, item) })
	case "$prefix":
		// RAI extension: string prefix match, used for key scans.
		s, ok1 := val.(string)
		p, ok2 := arg.(string)
		return ok1 && ok2 && strings.HasPrefix(s, p)
	}
	return false
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

// checkUpdate rejects a malformed normalized update — an unknown
// operator, a non-object operand, a non-numeric $inc, a write to _id,
// which never changes (c.docs indexes by it), or two writes to the same
// path or to a path and its parent, whose outcome would depend on map
// order — before any document is touched.
func checkUpdate(update M) error {
	var paths []string
	for op, arg := range update {
		fields, ok := arg.(map[string]any)
		if !ok {
			return fmt.Errorf("%w: %s wants an object", ErrBadUpdate, op)
		}
		switch op {
		case "$set", "$push":
		case "$inc":
			for path, v := range fields {
				if _, ok := toFloat(v); !ok {
					return fmt.Errorf("%w: $inc %s wants a number", ErrBadUpdate, path)
				}
			}
		default:
			return fmt.Errorf("%w: unsupported operator %q", ErrBadUpdate, op)
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

// updateFits reports why the checked, normalized update cannot apply to
// doc: $inc of a non-number or past the float range, $push onto a
// non-array. No two of an update's paths overlap (checkUpdate), so each
// path reads the same here as when applyUpdate reaches it, and an update
// that fits applies whole.
func updateFits(doc M, update M) error {
	inc, _ := update["$inc"].(map[string]any)
	for path, v := range inc {
		cur, present := lookup(doc, path)
		if !present {
			continue
		}
		base, ok := toFloat(cur)
		if !ok {
			return fmt.Errorf("%w: $inc on non-number %s", ErrBadUpdate, path)
		}
		if delta, _ := toFloat(v); math.IsInf(base+delta, 0) {
			return fmt.Errorf("%w: $inc overflows %s", ErrBadUpdate, path)
		}
	}
	push, _ := update["$push"].(map[string]any)
	for path := range push {
		if cur, present := lookup(doc, path); present {
			if _, ok := cur.([]any); !ok {
				return fmt.Errorf("%w: $push on non-array %s", ErrBadUpdate, path)
			}
		}
	}
	return nil
}

// applyUpdate mutates doc according to the checked, normalized update,
// which fits it (updateFits). Values are copied in, so documents never
// share a nested object with each other or with the update.
func applyUpdate(doc M, update M) {
	for op, arg := range update {
		fields, _ := arg.(map[string]any)
		switch op {
		case "$set":
			for path, v := range fields {
				setPath(doc, path, copyValue(v))
			}
		case "$inc":
			for path, v := range fields {
				delta, _ := toFloat(v)
				base, _ := lookup(doc, path)
				f, _ := toFloat(base)
				setPath(doc, path, f+delta)
			}
		case "$push":
			for path, v := range fields {
				arr, _ := lookup(doc, path)
				list, _ := arr.([]any)
				setPath(doc, path, append(list, copyValue(v)))
			}
		}
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
