package blobstore

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"hash"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"time"
)

// Disk is the local-filesystem backend: the durability S3 gave the
// paper's deployment (§VII: 100 GB of student uploads survive
// restarts). Unlike the old objstore write-through, payloads are NOT
// mirrored in memory — the constructor scans only the metadata
// sidecars, Open streams straight off the file, and Create streams to
// a temp file committed by an atomic rename, so daemon memory stays
// flat no matter how large the archives get.
//
// Layout under the root directory (unchanged from the old objstore
// layout, so existing data directories load as-is):
//
//	<root>/<bucket>/<key-with-slashes-escaped>        blob bytes
//	<root>/<bucket>/<key-with-slashes-escaped>.meta   Info JSON
//
// Keys may contain '/', escaped as "%2F" so the per-bucket layout stays
// flat (no traversal surface). In-flight temp files carry the "%tmp-"
// prefix, which no escaped key can start with ('%' escapes to "%25");
// leftovers from a crash are collected at the next constructor scan.
type Disk struct {
	idx  *index
	root string
}

const tmpPrefix = "%tmp-"

// NewDisk opens (or initializes) a disk backend rooted at root. Blobs
// left by a previous run are indexed from their .meta sidecars; a data
// file with a missing or corrupt sidecar is an error — surfacing the
// damage beats silently serving a blob with unknown TTL and hash.
func NewDisk(root string, opts ...Option) (*Disk, error) {
	d := &Disk{idx: newIndex(newConfig(opts)), root: root}
	d.idx.drop = d.removeFiles
	if err := d.load(); err != nil {
		return nil, fmt.Errorf("blobstore: loading %s: %w", root, err)
	}
	return d, nil
}

// escapeKey flattens an object key into a single path segment.
func escapeKey(key string) string {
	key = strings.ReplaceAll(key, "%", "%25")
	return strings.ReplaceAll(key, "/", "%2F")
}

func unescapeKey(name string) string {
	name = strings.ReplaceAll(name, "%2F", "/")
	return strings.ReplaceAll(name, "%25", "%")
}

func (d *Disk) dataPath(bucket, key string) string {
	return filepath.Join(d.root, bucket, escapeKey(key))
}

func (d *Disk) metaPath(bucket, key string) string {
	return d.dataPath(bucket, key) + ".meta"
}

// load scans the root for buckets and metadata. Payload bytes are left
// on disk; only Info enters the index.
func (d *Disk) load() error {
	entries, err := os.ReadDir(d.root)
	if os.IsNotExist(err) {
		return os.MkdirAll(d.root, 0o755)
	}
	if err != nil {
		return err
	}
	for _, bucketEnt := range entries {
		if !bucketEnt.IsDir() {
			continue
		}
		bucket := bucketEnt.Name()
		if !ValidBucket(bucket) {
			continue
		}
		bucketDir := filepath.Join(d.root, bucket)
		files, err := os.ReadDir(bucketDir)
		if err != nil {
			return err
		}
		bk := map[string]*entry{}
		for _, f := range files {
			name := f.Name()
			if f.IsDir() || strings.HasSuffix(name, ".meta") {
				continue
			}
			if strings.HasPrefix(name, tmpPrefix) {
				// A writer died mid-stream; the partial file is garbage.
				_ = os.Remove(filepath.Join(bucketDir, name))
				continue
			}
			var info Info
			metaRaw, err := os.ReadFile(filepath.Join(bucketDir, name) + ".meta")
			if err != nil {
				return fmt.Errorf("blob %s/%s has no metadata: %w", bucket, name, err)
			}
			if err := json.Unmarshal(metaRaw, &info); err != nil {
				return fmt.Errorf("corrupt metadata for %s/%s: %w", bucket, name, err)
			}
			st, err := f.Info()
			if err != nil {
				return err
			}
			key := unescapeKey(name)
			info.Bucket, info.Key = bucket, key
			if st.Size() != info.Size {
				// The file is authoritative (e.g. a crash between an append
				// and its meta rewrite); the recorded hash no longer holds.
				info.Size = st.Size()
				info.ETag = ""
			}
			bk[key] = &entry{info: info}
			d.idx.used += info.Size
		}
		d.idx.buckets[bucket] = bk
	}
	return nil
}

// removeFiles is the index drop hook (called with the index lock held).
func (d *Disk) removeFiles(bucket, key string) {
	_ = os.Remove(d.dataPath(bucket, key))
	_ = os.Remove(d.metaPath(bucket, key))
}

// writeMeta atomically replaces a blob's metadata sidecar (temp file in
// the same bucket dir, then rename).
func (d *Disk) writeMeta(info Info) error {
	raw, err := json.Marshal(info)
	if err != nil {
		return err
	}
	bucketDir := filepath.Join(d.root, info.Bucket)
	tmp, err := os.CreateTemp(bucketDir, tmpPrefix+"*")
	if err != nil {
		return err
	}
	if _, err := tmp.Write(raw); err != nil {
		_ = tmp.Close()
		_ = os.Remove(tmp.Name())
		return err
	}
	if err := tmp.Close(); err != nil {
		_ = os.Remove(tmp.Name())
		return err
	}
	if err := os.Rename(tmp.Name(), d.metaPath(info.Bucket, info.Key)); err != nil {
		_ = os.Remove(tmp.Name())
		return err
	}
	return nil
}

// Create implements Backend: bytes stream to a "%tmp-" file in the
// bucket directory and an atomic rename publishes them at Close, so a
// crashed or aborted writer never leaves a torn blob visible.
func (d *Disk) Create(ctx context.Context, bucket, key string, opts PutOptions) (Writer, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if err := checkNames(bucket, key); err != nil {
		return nil, err
	}
	bucketDir := filepath.Join(d.root, bucket)
	if err := os.MkdirAll(bucketDir, 0o755); err != nil {
		return nil, err
	}
	tmp, err := os.CreateTemp(bucketDir, tmpPrefix+"*")
	if err != nil {
		return nil, err
	}
	return &diskWriter{
		d: d, bucket: bucket, key: key,
		ttl:  d.idx.ttlOrDefault(opts.TTL),
		prev: d.idx.prevSize(bucket, key),
		f:    tmp, hash: sha256.New(), etag: opts.ETag,
	}, nil
}

// Open implements Backend: the reader is the file itself. The refreshed
// last-use time is persisted to the sidecar best-effort so TTL-from-
// last-use survives restarts. A blob removed mid-read keeps streaming:
// the unlinked file stays readable through the open descriptor (the
// disk flavor of the memory backend's copy-on-write guarantee).
func (d *Disk) Open(ctx context.Context, bucket, key string) (io.ReadCloser, Info, error) {
	if err := ctx.Err(); err != nil {
		return nil, Info{}, err
	}
	_, info, err := d.idx.open(bucket, key)
	if err != nil {
		return nil, Info{}, err
	}
	f, err := os.Open(d.dataPath(bucket, key))
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			return nil, Info{}, fmt.Errorf("%w: %q/%q (file vanished)", ErrNotFound, bucket, key)
		}
		return nil, Info{}, err
	}
	_ = d.writeMeta(info) // best-effort LastUsed persistence
	return f, info, nil
}

// Stat implements Backend.
func (d *Disk) Stat(ctx context.Context, bucket, key string) (Info, error) {
	if err := ctx.Err(); err != nil {
		return Info{}, err
	}
	return d.idx.stat(bucket, key)
}

// Touch implements Backend. The refresh and the metadata read happen in
// one index critical section (touchInfo), so the persisted sidecar is
// exactly the state this touch produced even when writers race it.
func (d *Disk) Touch(ctx context.Context, bucket, key string) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	info, err := d.idx.touchInfo(bucket, key)
	if err != nil {
		return err
	}
	_ = d.writeMeta(info) // best-effort LastUsed persistence
	return nil
}

// Used implements Backend.
func (d *Disk) Used() int64 { return d.idx.totalUsed() }

// Sweep implements Backend.
func (d *Disk) Sweep(ctx context.Context) (int, error) {
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	return d.idx.sweep(), nil
}

// Append implements Backend: O_APPEND on the data file, size and
// sidecar reconciled at Close. Appends are quota-exempt (journal tail
// writes must not fail on a full cache) and leave ETag unknown.
func (d *Disk) Append(ctx context.Context, bucket, key string) (io.WriteCloser, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if err := checkNames(bucket, key); err != nil {
		return nil, err
	}
	bucketDir := filepath.Join(d.root, bucket)
	if err := os.MkdirAll(bucketDir, 0o755); err != nil {
		return nil, err
	}
	f, err := os.OpenFile(d.dataPath(bucket, key), os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o600)
	if err != nil {
		return nil, err
	}
	return &diskAppender{d: d, bucket: bucket, key: key, f: f}, nil
}

// Close implements Backend.
func (d *Disk) Close() error {
	d.idx.close()
	return nil
}

// diskWriter streams to the temp file, hashing as it goes, and commits
// (rename + sidecar + index insert) atomically with the quota check.
type diskWriter struct {
	d       *Disk
	bucket  string
	key     string
	ttl     time.Duration
	prev    int64
	f       *os.File
	hash    hash.Hash
	etag    string // PutOptions.ETag: the digest to insist on, if any
	written int64
	info    Info
	done    bool
}

func (w *diskWriter) Write(p []byte) (int, error) {
	if w.done {
		return 0, ErrClosed
	}
	if w.d.idx.overQuota(w.prev, w.written+int64(len(p))) {
		return 0, fmt.Errorf("%w: %d bytes streamed", ErrQuota, w.written+int64(len(p)))
	}
	n, err := w.f.Write(p)
	w.hash.Write(p[:n])
	w.written += int64(n)
	return n, err
}

func (w *diskWriter) Close() error {
	if w.done {
		return nil
	}
	w.done = true
	if err := w.f.Close(); err != nil {
		_ = os.Remove(w.f.Name())
		return err
	}
	etag := hex.EncodeToString(w.hash.Sum(nil))
	if w.etag != "" && etag != w.etag {
		_ = os.Remove(w.f.Name())
		return fmt.Errorf("%w: %q/%q hashes to %s", ErrETag, w.bucket, w.key, etag)
	}
	now := w.d.idx.now()
	info := Info{
		Bucket: w.bucket, Key: w.key, Size: w.written,
		ETag:     etag,
		Modified: now, LastUsed: now, TTL: w.ttl,
	}
	committed, err := w.d.idx.commitWith(info, nil, func() error {
		if err := os.Rename(w.f.Name(), w.d.dataPath(w.bucket, w.key)); err != nil {
			return err
		}
		return w.d.writeMeta(info)
	})
	if err != nil {
		_ = os.Remove(w.f.Name())
		return err
	}
	w.info = committed
	return nil
}

func (w *diskWriter) Abort() error {
	if w.done {
		return nil
	}
	w.done = true
	_ = w.f.Close()
	return os.Remove(w.f.Name())
}

func (w *diskWriter) Info() Info { return w.info }

// diskAppender wraps the O_APPEND file and reconciles index + sidecar
// when closed.
type diskAppender struct {
	d      *Disk
	bucket string
	key    string
	f      *os.File
	done   bool
}

func (a *diskAppender) Write(p []byte) (int, error) {
	if a.done {
		return 0, ErrClosed
	}
	return a.f.Write(p)
}

func (a *diskAppender) Close() error {
	if a.done {
		return nil
	}
	a.done = true
	st, statErr := a.f.Stat()
	if err := a.f.Close(); err != nil {
		return err
	}
	if statErr != nil {
		return statErr
	}
	info := a.d.idx.appendCommit(a.bucket, a.key, st.Size(), 0)
	if info.Bucket != "" {
		_ = a.d.writeMeta(info)
	}
	return nil
}
