package blobstore

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"io"
	"time"
)

// Memory is the heap-backed backend. Committed payloads are immutable:
// Open hands out readers that alias the committed slice (no defensive
// copy) and an overwrite commits a fresh slice rather than mutating the
// old one, so readers opened before the overwrite keep seeing the
// content they opened — copy-on-write without ever copying on read.
type Memory struct {
	idx *index
}

// NewMemory creates an empty in-memory backend.
func NewMemory(opts ...Option) *Memory {
	return &Memory{idx: newIndex(newConfig(opts))}
}

// MakeBucket implements Backend.
func (m *Memory) MakeBucket(ctx context.Context, bucket string) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	return m.idx.makeBucket(bucket)
}

// Buckets implements Backend.
func (m *Memory) Buckets(ctx context.Context) ([]string, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return m.idx.bucketNames(), nil
}

// Create implements Backend.
func (m *Memory) Create(ctx context.Context, bucket, key string, opts PutOptions) (Writer, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if err := checkNames(bucket, key); err != nil {
		return nil, err
	}
	return &memWriter{
		idx: m.idx, bucket: bucket, key: key,
		ttl:  m.idx.ttlOrDefault(opts.TTL),
		prev: m.idx.prevSize(bucket, key),
		buf:  make([]byte, 0, max(0, min(opts.Size, maxPresize))),
		hash: sha256.New(),
		etag: opts.ETag,
	}, nil
}

// Open implements Backend. The reader aliases the committed buffer;
// because commits replace rather than mutate it, the reader stays
// consistent even if the blob is overwritten or removed mid-read.
func (m *Memory) Open(ctx context.Context, bucket, key string) (io.ReadCloser, Info, error) {
	if err := ctx.Err(); err != nil {
		return nil, Info{}, err
	}
	e, info, err := m.idx.open(bucket, key)
	if err != nil {
		return nil, Info{}, err
	}
	return io.NopCloser(bytes.NewReader(e.data)), info, nil
}

// Stat implements Backend.
func (m *Memory) Stat(ctx context.Context, bucket, key string) (Info, error) {
	if err := ctx.Err(); err != nil {
		return Info{}, err
	}
	return m.idx.stat(bucket, key)
}

// Touch implements Backend.
func (m *Memory) Touch(ctx context.Context, bucket, key string) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	return m.idx.touch(bucket, key)
}

// List implements Backend.
func (m *Memory) List(ctx context.Context, bucket, prefix string) ([]Info, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return m.idx.list(bucket, prefix)
}

// Remove implements Backend.
func (m *Memory) Remove(ctx context.Context, bucket, key string) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	return m.idx.remove(bucket, key)
}

// Used implements Backend.
func (m *Memory) Used() int64 { return m.idx.totalUsed() }

// Sweep implements Backend.
func (m *Memory) Sweep(ctx context.Context) (int, error) {
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	return m.idx.sweep(), nil
}

// Append implements Backend: the new bytes are concatenated into a
// fresh slice at close, preserving copy-on-write for open readers.
func (m *Memory) Append(ctx context.Context, bucket, key string) (io.WriteCloser, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if err := checkNames(bucket, key); err != nil {
		return nil, err
	}
	return &memAppender{idx: m.idx, bucket: bucket, key: key}, nil
}

// Close implements Backend.
func (m *Memory) Close() error {
	m.idx.close()
	return nil
}

// maxPresize caps what a PutOptions.Size hint may allocate before any
// byte has arrived: the hint can be a peer's claim.
const maxPresize = 1 << 20

// memWriter accumulates the payload and commits it as an immutable
// slice. Quota is checked incrementally so an oversized stream fails
// fast instead of ballooning the heap, then authoritatively at commit.
type memWriter struct {
	idx    *index
	bucket string
	key    string
	ttl    time.Duration
	prev   int64
	buf    []byte
	hash   hash.Hash
	etag   string // PutOptions.ETag: the digest to insist on, if any
	info   Info
	done   bool
}

func (w *memWriter) Write(p []byte) (int, error) {
	if w.done {
		return 0, ErrClosed
	}
	if w.idx.overQuota(w.prev, int64(len(w.buf)+len(p))) {
		return 0, fmt.Errorf("%w: %d bytes streamed", ErrQuota, len(w.buf)+len(p))
	}
	w.hash.Write(p)
	w.buf = append(w.buf, p...)
	return len(p), nil
}

func (w *memWriter) Close() error {
	if w.done {
		return nil
	}
	w.done = true
	data := w.buf
	w.buf = nil
	etag := hex.EncodeToString(w.hash.Sum(nil))
	if w.etag != "" && etag != w.etag {
		return fmt.Errorf("%w: %q/%q hashes to %s", ErrETag, w.bucket, w.key, etag)
	}
	// A buffer the size hint got exactly right is committed as it stands;
	// one that grew by appends is trimmed to its content.
	if len(data) < cap(data) {
		data = append([]byte(nil), data...)
	}
	now := w.idx.now()
	info := Info{
		Bucket: w.bucket, Key: w.key, Size: int64(len(data)),
		ETag:     etag,
		Modified: now, LastUsed: now, TTL: w.ttl,
	}
	committed, err := w.idx.commit(info, data)
	if err != nil {
		return err
	}
	w.info = committed
	return nil
}

func (w *memWriter) Abort() error {
	w.done = true
	w.buf = nil
	return nil
}

func (w *memWriter) Info() Info { return w.info }

// memAppender buffers appended bytes and splices them onto the current
// payload at close.
type memAppender struct {
	idx    *index
	bucket string
	key    string
	buf    bytes.Buffer
	done   bool
}

func (a *memAppender) Write(p []byte) (int, error) {
	if a.done {
		return 0, ErrClosed
	}
	return a.buf.Write(p)
}

func (a *memAppender) Close() error {
	if a.done {
		return nil
	}
	a.done = true
	a.idx.appendData(a.bucket, a.key, a.buf.Bytes())
	return nil
}
