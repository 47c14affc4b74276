// Package objstore implements the S3-like object file server RAI uses
// (paper §IV "File Storage Server"): student project uploads, worker
// /build outputs, and instructor bulk downloads, with per-object
// lifetimes so files "can be configured to have a particular lifetime
// after which they get deleted" (1–3 months in the paper's deployment;
// expiry is measured from last use, matching §V step 3).
//
// The storage engine itself lives in internal/blobstore (memory and
// disk backends behind one streaming interface); this package is the
// object-server facade over a blobstore.Backend: an in-process API
// (Store), an HTTP server exposing it, and an HTTP client, so the same
// code path works embedded in simulations and as a standalone daemon.
// Archives stream through — the HTTP handler and Client.PutReader /
// GetReader move bytes without materializing them, and the []byte
// Put/Get are thin adapters for small objects.
package objstore

import (
	"bytes"
	"context"
	"io"
	"time"

	"rai/internal/blobstore"
	"rai/internal/clock"
)

// Errors reported by the store. These alias the blobstore sentinels, so
// errors.Is works across both packages' names for the same condition.
var (
	ErrNoBucket  = blobstore.ErrNoBucket
	ErrNoObject  = blobstore.ErrNotFound
	ErrBadName   = blobstore.ErrBadName
	ErrQuota     = blobstore.ErrQuota
	ErrKeyExists = blobstore.ErrExists
)

// ObjectInfo is object metadata (the blobstore Info, re-exported under
// the name this package always used).
type ObjectInfo = blobstore.Info

// Store is the object-store engine: the in-process facade over a
// blobstore.Backend. It carries the same context-first method set as
// Client, so either satisfies core.Objects.
type Store struct {
	be blobstore.Backend
}

// Option configures the backend a Store constructor builds.
type Option func(*[]blobstore.Option)

// WithClock substitutes the time source.
func WithClock(c clock.Clock) Option {
	return func(o *[]blobstore.Option) { *o = append(*o, blobstore.WithClock(c)) }
}

// WithCapacity bounds total stored bytes.
func WithCapacity(n int64) Option {
	return func(o *[]blobstore.Option) { *o = append(*o, blobstore.WithCapacity(n)) }
}

// WithDefaultTTL sets the lifetime applied when Put is called with ttl=0.
// The paper's deployment used one month.
func WithDefaultTTL(d time.Duration) Option {
	return func(o *[]blobstore.Option) { *o = append(*o, blobstore.WithDefaultTTL(d)) }
}

func backendOptions(opts []Option) []blobstore.Option {
	var bopts []blobstore.Option
	for _, o := range opts {
		o(&bopts)
	}
	return bopts
}

// New creates an empty in-memory store. For a disk-backed store use
// Open; for mount tables or custom engines use NewWithBackend.
func New(opts ...Option) *Store {
	return &Store{be: blobstore.NewMemory(backendOptions(opts)...)}
}

// Open creates a store that persists objects under dir, loading whatever
// a previous run left there (only metadata is loaded; object bytes stay
// on disk and stream on demand).
func Open(dir string, opts ...Option) (*Store, error) {
	be, err := blobstore.NewDisk(dir, backendOptions(opts)...)
	if err != nil {
		return nil, err
	}
	return &Store{be: be}, nil
}

// NewWithBackend wraps an existing backend (e.g. a blobstore.Table
// routing bucket prefixes to different engines).
func NewWithBackend(be blobstore.Backend) *Store { return &Store{be: be} }

// Close releases the backend.
func (s *Store) Close() error { return s.be.Close() }

// CreateBucket makes a bucket; creating an existing bucket is an error.
func (s *Store) CreateBucket(ctx context.Context, bucket string) error {
	return s.be.MakeBucket(ctx, bucket)
}

// put streams r into bucket/key and returns the committed metadata;
// nothing becomes visible unless the whole stream commits, and a failed
// copy cleans up its partial write.
func (s *Store) put(ctx context.Context, bucket, key string, r io.Reader, opts blobstore.PutOptions) (ObjectInfo, error) {
	w, err := s.be.Create(ctx, bucket, key, opts)
	if err != nil {
		return ObjectInfo{}, err
	}
	if _, err := io.Copy(w, r); err != nil {
		w.Abort()
		return ObjectInfo{}, err
	}
	if err := w.Close(); err != nil {
		return ObjectInfo{}, err
	}
	return w.Info(), nil
}

// Put stores data at bucket/key (creating the bucket implicitly, as the
// RAI deployment pre-creates only a handful of well-known buckets). A
// zero ttl adopts the store default.
func (s *Store) Put(ctx context.Context, bucket, key string, data []byte, ttl time.Duration) error {
	_, err := s.put(ctx, bucket, key, bytes.NewReader(data), blobstore.PutOptions{TTL: ttl, Size: int64(len(data))})
	return err
}

// Get returns the object content and refreshes its last-use time (the
// paper: "deleted one month after the last use"). The returned slice is
// freshly allocated, never aliasing store internals.
func (s *Store) Get(ctx context.Context, bucket, key string) ([]byte, error) {
	rc, size, err := s.GetReader(ctx, bucket, key)
	if err != nil {
		return nil, err
	}
	defer rc.Close()
	data := make([]byte, size)
	if _, err := io.ReadFull(rc, data); err != nil {
		return nil, err
	}
	return data, nil
}

// GetReader returns a streaming reader over the object content and its
// size, refreshing last-use. The caller must Close it.
func (s *Store) GetReader(ctx context.Context, bucket, key string) (io.ReadCloser, int64, error) {
	rc, info, err := s.be.Open(ctx, bucket, key)
	if err != nil {
		return nil, 0, err
	}
	return rc, info.Size, nil
}

// Head returns metadata without touching last-use.
func (s *Store) Head(ctx context.Context, bucket, key string) (ObjectInfo, error) {
	return s.be.Stat(ctx, bucket, key)
}

// Delete removes an object.
func (s *Store) Delete(ctx context.Context, bucket, key string) error {
	return s.be.Remove(ctx, bucket, key)
}

// List returns metadata for keys in bucket with the given prefix, sorted
// by key. Expired objects are excluded (and lazily collected).
func (s *Store) List(ctx context.Context, bucket, prefix string) ([]ObjectInfo, error) {
	return s.be.List(ctx, bucket, prefix)
}

// Buckets lists bucket names, sorted.
func (s *Store) Buckets(ctx context.Context) ([]string, error) {
	return s.be.Buckets(ctx)
}

// Used reports total stored bytes (expired-but-uncollected objects
// included until a sweep or access removes them).
func (s *Store) Used() int64 { return s.be.Used() }

// Sweep removes all expired objects and reports how many were deleted.
// Deployments run this periodically; simulations call it explicitly.
func (s *Store) Sweep(ctx context.Context) (int, error) {
	return s.be.Sweep(ctx)
}

// Touch refreshes an object's last-use time without reading it (used
// when a URL is shared but the content is not yet fetched).
func (s *Store) Touch(ctx context.Context, bucket, key string) error {
	return s.be.Touch(ctx, bucket, key)
}
