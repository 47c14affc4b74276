package blobstore

import (
	"fmt"
	"sync"
	"time"
)

// entry is one blob in the metadata index. data carries the payload for
// the memory backend and is nil for disk; committed slices are
// immutable (copy-on-write), so readers may alias them without a lock.
type entry struct {
	info Info
	data []byte
}

// index is the metadata plane shared by the memory and disk backends:
// bucket/key maps, byte accounting against an optional capacity,
// and last-use TTL bookkeeping. The data plane differs
// per backend (heap buffers vs files); everything else lives here once,
// which is what lets objstore and docstore delete their duplicated
// persistence code.
type index struct {
	mu      sync.Mutex
	cfg     config
	buckets map[string]map[string]*entry
	used    int64
	closed  bool
	// drop releases an entry's durable data (disk unlinks files); called
	// with mu held whenever an entry leaves the index via sweep or lazy
	// expiry.
	drop func(bucket, key string)
}

func newIndex(cfg config) *index {
	return &index{cfg: cfg, buckets: map[string]map[string]*entry{}}
}

func (x *index) now() time.Time { return x.cfg.clk.Now() }

func (x *index) ttlOrDefault(d time.Duration) time.Duration {
	if d == 0 {
		return x.cfg.defTTL
	}
	return d
}

func checkNames(bucket, key string) error {
	if !ValidBucket(bucket) || !ValidKey(key) {
		return fmt.Errorf("%w: %q/%q", ErrBadName, bucket, key)
	}
	return nil
}

// lookupLocked finds a live entry, lazily collecting it if expired.
func (x *index) lookupLocked(bucket, key string) (*entry, error) {
	bk, ok := x.buckets[bucket]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNoBucket, bucket)
	}
	e, ok := bk[key]
	if !ok {
		return nil, fmt.Errorf("%w: %q/%q", ErrNotFound, bucket, key)
	}
	if x.expiredLocked(e) {
		x.removeEntryLocked(bucket, key, e)
		return nil, fmt.Errorf("%w: %q/%q (expired)", ErrNotFound, bucket, key)
	}
	return e, nil
}

func (x *index) expiredLocked(e *entry) bool {
	return e.info.TTL > 0 && x.now().After(e.info.LastUsed.Add(e.info.TTL))
}

// removeEntryLocked drops an entry from the index and releases its
// durable data.
func (x *index) removeEntryLocked(bucket, key string, e *entry) {
	delete(x.buckets[bucket], key)
	x.used -= e.info.Size
	if x.drop != nil {
		x.drop(bucket, key)
	}
}

// open returns the entry (for the memory data plane) and a metadata
// copy, refreshing last-use.
func (x *index) open(bucket, key string) (*entry, Info, error) {
	if err := checkNames(bucket, key); err != nil {
		return nil, Info{}, err
	}
	x.mu.Lock()
	defer x.mu.Unlock()
	if x.closed {
		return nil, Info{}, ErrClosed
	}
	e, err := x.lookupLocked(bucket, key)
	if err != nil {
		return nil, Info{}, err
	}
	e.info.LastUsed = x.now()
	return e, e.info, nil
}

func (x *index) stat(bucket, key string) (Info, error) {
	if err := checkNames(bucket, key); err != nil {
		return Info{}, err
	}
	x.mu.Lock()
	defer x.mu.Unlock()
	if x.closed {
		return Info{}, ErrClosed
	}
	e, err := x.lookupLocked(bucket, key)
	if err != nil {
		return Info{}, err
	}
	return e.info, nil
}

func (x *index) touch(bucket, key string) error {
	_, err := x.touchInfo(bucket, key)
	return err
}

// touchInfo refreshes last-use and returns the updated metadata in the
// same critical section, so callers that persist the refresh (the disk
// sidecar write) see exactly the state they produced — a separate
// touch-then-stat pair would leave a window for a concurrent writer or
// expiry to change the entry between the two lock acquisitions.
func (x *index) touchInfo(bucket, key string) (Info, error) {
	if err := checkNames(bucket, key); err != nil {
		return Info{}, err
	}
	x.mu.Lock()
	defer x.mu.Unlock()
	if x.closed {
		return Info{}, ErrClosed
	}
	e, err := x.lookupLocked(bucket, key)
	if err != nil {
		return Info{}, err
	}
	e.info.LastUsed = x.now()
	return e.info, nil
}

func (x *index) totalUsed() int64 {
	x.mu.Lock()
	defer x.mu.Unlock()
	return x.used
}

func (x *index) sweep() int {
	x.mu.Lock()
	defer x.mu.Unlock()
	if x.closed {
		return 0
	}
	n := 0
	for bucket, bk := range x.buckets {
		for key, e := range bk {
			if x.expiredLocked(e) {
				x.removeEntryLocked(bucket, key, e)
				n++
			}
		}
	}
	return n
}

// prevSize reports the size an existing blob currently occupies; a
// streaming writer uses it to check quota incrementally as bytes
// arrive (the replacement frees the old copy at commit).
func (x *index) prevSize(bucket, key string) int64 {
	x.mu.Lock()
	defer x.mu.Unlock()
	if bk, ok := x.buckets[bucket]; ok {
		if e, ok := bk[key]; ok {
			return e.info.Size
		}
	}
	return 0
}

// overQuota reports whether replacing a blob of prev bytes with n bytes
// would exceed capacity. Advisory during streaming; commit re-checks
// authoritatively under the lock.
func (x *index) overQuota(prev, n int64) bool {
	if x.cfg.capacity <= 0 {
		return false
	}
	x.mu.Lock()
	defer x.mu.Unlock()
	return x.used-prev+n > x.cfg.capacity
}

// commit makes a finished write visible: creates the bucket if needed,
// enforces capacity and replaces any previous entry.
// data is the memory payload (nil for disk). Returns the committed
// info.
func (x *index) commit(info Info, data []byte) (Info, error) {
	return x.commitWith(info, data, nil)
}

// commitWith is commit with a persistence step (the disk rename +
// sidecar write) run under the index lock, after the quota check and
// before the entry becomes visible — so the index never advertises a
// blob whose files are not in place, and a failed rename costs nothing
// but the temp file.
func (x *index) commitWith(info Info, data []byte, persist func() error) (Info, error) {
	x.mu.Lock()
	defer x.mu.Unlock()
	if x.closed {
		return Info{}, ErrClosed
	}
	bk, ok := x.buckets[info.Bucket]
	if !ok {
		bk = map[string]*entry{}
		x.buckets[info.Bucket] = bk
	}
	var prev int64
	if old, ok := bk[info.Key]; ok {
		prev = old.info.Size
	}
	if x.cfg.capacity > 0 && x.used-prev+info.Size > x.cfg.capacity {
		return Info{}, fmt.Errorf("%w: %d bytes requested", ErrQuota, info.Size)
	}
	if persist != nil {
		if err := persist(); err != nil {
			return Info{}, err
		}
	}
	x.used += info.Size - prev
	bk[info.Key] = &entry{info: info, data: data}
	return info, nil
}

// appendCommit records an append: the blob grew by delta bytes and its
// hash is no longer known. Creates the entry when the append targeted a
// missing key. Appends are quota-exempt (journals must not lose tail
// writes to a full cache), so only accounting is updated. The updated
// metadata is returned from inside the critical section for callers
// that persist it (same atomicity argument as touchInfo).
func (x *index) appendCommit(bucket, key string, newSize int64, ttl time.Duration) Info {
	x.mu.Lock()
	defer x.mu.Unlock()
	if x.closed {
		return Info{}
	}
	bk, ok := x.buckets[bucket]
	if !ok {
		bk = map[string]*entry{}
		x.buckets[bucket] = bk
	}
	now := x.now()
	e, ok := bk[key]
	if !ok {
		e = &entry{info: Info{Bucket: bucket, Key: key, Modified: now, TTL: x.ttlOrDefault(ttl)}}
		bk[key] = e
	}
	x.used += newSize - e.info.Size
	e.info.Size = newSize
	e.info.ETag = ""
	e.info.Modified = now
	e.info.LastUsed = now
	e.data = nil
	return e.info
}

// appendData is the memory backend's append: splices extra onto the
// current payload as a fresh slice (copy-on-write preserved for open
// readers) and updates accounting. Quota-exempt, like appendCommit.
func (x *index) appendData(bucket, key string, extra []byte) {
	x.mu.Lock()
	defer x.mu.Unlock()
	if x.closed {
		return
	}
	bk, ok := x.buckets[bucket]
	if !ok {
		bk = map[string]*entry{}
		x.buckets[bucket] = bk
	}
	now := x.now()
	e, ok := bk[key]
	if !ok {
		e = &entry{info: Info{Bucket: bucket, Key: key, Modified: now, TTL: x.cfg.defTTL}}
		bk[key] = e
	}
	joined := make([]byte, 0, len(e.data)+len(extra))
	joined = append(append(joined, e.data...), extra...)
	x.used += int64(len(joined)) - e.info.Size
	e.data = joined
	e.info.Size = int64(len(joined))
	e.info.ETag = ""
	e.info.Modified = now
	e.info.LastUsed = now
}

func (x *index) close() {
	x.mu.Lock()
	x.closed = true
	x.mu.Unlock()
}
