// Package blobstore is the shared streaming storage layer under RAI's
// storage services (objstore's S3-like object server and docstore's
// journal). It replaces the persistence code those packages used to
// hand-roll — and, crucially, replaces their buffer-the-whole-archive
// data path with streaming reads and writes, so a submission archive
// flows through a daemon in constant memory regardless of its size.
//
// The package provides:
//
//   - Backend: the storage-backend interface. Open returns an
//     io.ReadCloser, Create returns a committing Writer, plus Stat,
//     List, Remove, Touch, per-blob TTLs measured from last use, and
//     Sweep for expiry collection.
//   - Memory and Disk backends. Memory hands out copy-on-write readers
//     over immutable buffers (no defensive copying); Disk streams to a
//     temp file and commits with an atomic rename, cleaning up partial
//     writes on error.
//   - Table: a mount table routing bucket prefixes to backends, so one
//     daemon can keep uploads on disk and scratch buckets in memory.
//   - Append: journal-style callers extend a blob without rewriting
//     it; every backend implements it.
package blobstore

import (
	"context"
	"errors"
	"io"
	"strings"
	"time"

	"rai/internal/clock"
)

// Errors reported by backends.
var (
	ErrNoBucket = errors.New("blobstore: no such bucket")
	ErrNotFound = errors.New("blobstore: no such blob")
	ErrBadName  = errors.New("blobstore: invalid bucket or key")
	ErrQuota    = errors.New("blobstore: capacity exceeded")
	ErrExists   = errors.New("blobstore: bucket already exists")
	ErrClosed   = errors.New("blobstore: backend closed")
	ErrETag     = errors.New("blobstore: content does not hash to the expected ETag")
)

// Info is blob metadata. Field names (not tags) are the on-disk meta
// JSON schema, kept compatible with the sidecar files the old objstore
// disk write-through produced.
type Info struct {
	Bucket   string
	Key      string
	Size     int64
	ETag     string // hex SHA-256 of the content ("" when unknown, e.g. after appends)
	Modified time.Time
	LastUsed time.Time
	// TTL is the lifetime measured from LastUsed; zero means no expiry.
	TTL time.Duration
}

// PutOptions configures one Create.
type PutOptions struct {
	// TTL is the blob lifetime from last use; zero adopts the backend
	// default.
	TTL time.Duration
	// Size, when positive, is the length the caller expects to write. It
	// is a hint, never a limit: the memory backend sizes its buffer from
	// it, so a blob written to exactly this length is allocated once.
	Size int64
	// ETag, when set, is the hex SHA-256 the content must have: Close
	// commits nothing and reports ErrETag for a stream that hashed
	// differently. Content-addressed callers get their check from the
	// digest every writer computes anyway.
	ETag string
}

// Writer is a streaming blob writer. Nothing is visible to readers
// until Close commits; Abort discards a partial write (the partial
// bytes are cleaned up, not left as a torn blob). Exactly one of Close
// or Abort should be called; Abort after a failed Close is a no-op.
type Writer interface {
	io.Writer
	// Close commits the blob and finalizes Info.
	Close() error
	// Abort discards the partial write.
	Abort() error
	// Info returns the committed metadata; valid after a successful
	// Close.
	Info() Info
}

// Backend is the storage-backend interface shared by the memory and
// disk engines and the mount table.
type Backend interface {
	// MakeBucket creates a bucket; an existing bucket is ErrExists.
	// (Create also makes buckets implicitly, as RAI pre-creates only a
	// handful of well-known ones.)
	MakeBucket(ctx context.Context, bucket string) error
	// Buckets lists bucket names, sorted.
	Buckets(ctx context.Context) ([]string, error)
	// Create opens a streaming writer for bucket/key. The blob becomes
	// visible when the writer is closed.
	Create(ctx context.Context, bucket, key string, opts PutOptions) (Writer, error)
	// Open returns a streaming reader and the blob's metadata,
	// refreshing its last-use time (expiry is measured from last use).
	Open(ctx context.Context, bucket, key string) (io.ReadCloser, Info, error)
	// Stat returns metadata without touching last-use.
	Stat(ctx context.Context, bucket, key string) (Info, error)
	// Touch refreshes last-use without reading content.
	Touch(ctx context.Context, bucket, key string) error
	// List returns metadata for keys under prefix, sorted by key.
	// Expired blobs are excluded (and lazily collected).
	List(ctx context.Context, bucket, prefix string) ([]Info, error)
	// Remove deletes a blob.
	Remove(ctx context.Context, bucket, key string) error
	// Used reports total stored bytes. It reads the in-memory
	// accounting only, so it takes no context and cannot fail.
	Used() int64
	// Sweep collects expired blobs and reports how many were removed.
	Sweep(ctx context.Context) (int, error)
	// Append opens a writer that extends bucket/key without rewriting
	// it (creating it when absent), for journal-style callers. Size and
	// Modified update when the returned writer closes; ETag becomes ""
	// (unknown) because the content was not re-hashed.
	Append(ctx context.Context, bucket, key string) (io.WriteCloser, error)
	// Close releases the backend; later calls report ErrClosed.
	Close() error
}

var (
	_ Backend = (*Memory)(nil)
	_ Backend = (*Disk)(nil)
	_ Backend = (*Table)(nil)
)

// ValidBucket reports whether b is a legal bucket name: 1-63 runes of
// [a-z0-9.-].
func ValidBucket(b string) bool {
	if b == "" || len(b) > 63 {
		return false
	}
	for _, r := range b {
		switch {
		case r >= 'a' && r <= 'z', r >= '0' && r <= '9', r == '-', r == '.':
		default:
			return false
		}
	}
	return true
}

// ValidKey reports whether k is a legal object key: non-empty, at most
// 512 bytes, relative, and free of empty/dot path segments.
func ValidKey(k string) bool {
	if k == "" || len(k) > 512 || strings.HasPrefix(k, "/") {
		return false
	}
	for _, seg := range strings.Split(k, "/") {
		if seg == "" || seg == "." || seg == ".." {
			return false
		}
	}
	return true
}

// Option configures a backend at construction.
type Option func(*config)

type config struct {
	capacity int64
	defTTL   time.Duration
	clk      clock.Clock
}

func newConfig(opts []Option) config {
	cfg := config{clk: clock.Real{}}
	for _, o := range opts {
		o(&cfg)
	}
	return cfg
}

// WithCapacity bounds total stored bytes (0 = unlimited). Streaming
// writers that cross the bound fail mid-write with ErrQuota.
func WithCapacity(n int64) Option { return func(c *config) { c.capacity = n } }

// WithDefaultTTL sets the lifetime applied when PutOptions.TTL is zero.
func WithDefaultTTL(d time.Duration) Option { return func(c *config) { c.defTTL = d } }

// WithClock substitutes the time source (virtual in tests).
func WithClock(clk clock.Clock) Option { return func(c *config) { c.clk = clk } }
