package blobstore

import (
	"context"
	"fmt"
	"io"
	"sort"
	"sync"
)

// Table is a mount table: it routes each bucket to a backend by
// longest-prefix match on the bucket name, with a default backend for
// everything unmatched. It implements Backend itself, so callers
// (objstore's Store, docstore's journal) are indifferent to whether
// they talk to one engine or a routed set — e.g. durable uploads on
// disk with scratch build output in memory:
//
//	t := blobstore.NewTable(disk)
//	t.Mount("rai-scratch", mem)
type Table struct {
	mu     sync.RWMutex
	def    Backend
	mounts []tableMount // sorted by descending prefix length
}

type tableMount struct {
	prefix string
	be     Backend
}

// NewTable creates a table with def as the default backend.
func NewTable(def Backend) *Table {
	return &Table{def: def}
}

// Mount routes buckets whose name starts with prefix to be. A longer
// prefix wins over a shorter one; duplicate prefixes are an error.
func (t *Table) Mount(prefix string, be Backend) error {
	if prefix == "" || be == nil {
		return fmt.Errorf("%w: empty mount prefix or nil backend", ErrBadName)
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, m := range t.mounts {
		if m.prefix == prefix {
			return fmt.Errorf("%w: mount prefix %q", ErrExists, prefix)
		}
	}
	t.mounts = append(t.mounts, tableMount{prefix: prefix, be: be})
	sort.SliceStable(t.mounts, func(i, j int) bool {
		return len(t.mounts[i].prefix) > len(t.mounts[j].prefix)
	})
	return nil
}

// Resolve returns the backend serving bucket.
func (t *Table) Resolve(bucket string) Backend {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.resolveLocked(bucket)
}

func (t *Table) resolveLocked(bucket string) Backend {
	for _, m := range t.mounts {
		if len(bucket) >= len(m.prefix) && bucket[:len(m.prefix)] == m.prefix {
			return m.be
		}
	}
	return t.def
}

// backends returns the distinct backends in mount order, default last.
func (t *Table) backends() []Backend {
	t.mu.RLock()
	defer t.mu.RUnlock()
	seen := map[Backend]bool{}
	var out []Backend
	for _, m := range t.mounts {
		if !seen[m.be] {
			seen[m.be] = true
			out = append(out, m.be)
		}
	}
	if !seen[t.def] {
		out = append(out, t.def)
	}
	return out
}

// MakeBucket implements Backend.
func (t *Table) MakeBucket(ctx context.Context, bucket string) error {
	return t.Resolve(bucket).MakeBucket(ctx, bucket)
}

// Buckets implements Backend: the sorted union across backends.
func (t *Table) Buckets(ctx context.Context) ([]string, error) {
	seen := map[string]bool{}
	var out []string
	for _, be := range t.backends() {
		names, err := be.Buckets(ctx)
		if err != nil {
			return nil, err
		}
		for _, n := range names {
			if !seen[n] {
				seen[n] = true
				out = append(out, n)
			}
		}
	}
	sort.Strings(out)
	return out, nil
}

// Create implements Backend.
func (t *Table) Create(ctx context.Context, bucket, key string, opts PutOptions) (Writer, error) {
	return t.Resolve(bucket).Create(ctx, bucket, key, opts)
}

// Open implements Backend.
func (t *Table) Open(ctx context.Context, bucket, key string) (io.ReadCloser, Info, error) {
	return t.Resolve(bucket).Open(ctx, bucket, key)
}

// Stat implements Backend.
func (t *Table) Stat(ctx context.Context, bucket, key string) (Info, error) {
	return t.Resolve(bucket).Stat(ctx, bucket, key)
}

// Touch implements Backend.
func (t *Table) Touch(ctx context.Context, bucket, key string) error {
	return t.Resolve(bucket).Touch(ctx, bucket, key)
}

// List implements Backend.
func (t *Table) List(ctx context.Context, bucket, prefix string) ([]Info, error) {
	return t.Resolve(bucket).List(ctx, bucket, prefix)
}

// Remove implements Backend.
func (t *Table) Remove(ctx context.Context, bucket, key string) error {
	return t.Resolve(bucket).Remove(ctx, bucket, key)
}

// Used implements Backend: the sum across backends.
func (t *Table) Used() int64 {
	var total int64
	for _, be := range t.backends() {
		total += be.Used()
	}
	return total
}

// Sweep implements Backend: sweeps every backend.
func (t *Table) Sweep(ctx context.Context) (int, error) {
	total := 0
	for _, be := range t.backends() {
		n, err := be.Sweep(ctx)
		if err != nil {
			return total, err
		}
		total += n
	}
	return total, nil
}

// Append implements Backend.
func (t *Table) Append(ctx context.Context, bucket, key string) (io.WriteCloser, error) {
	return t.Resolve(bucket).Append(ctx, bucket, key)
}

// Close implements Backend: closes every distinct backend, returning
// the first error.
func (t *Table) Close() error {
	var first error
	for _, be := range t.backends() {
		if err := be.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}
