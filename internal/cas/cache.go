package cas

import (
	"container/list"
	"sync"
)

// CacheBytes is the payload budget of a worker's chunk cache. What a
// resubmission reuses is the tree its student sent last, and a large
// course project is about 2 MiB, so 4 MiB keeps the latest trees of two
// such students: one per slot of a two-slot worker, all but their edits
// served locally. Its price is paid in resident memory at about twice
// the payload, 8 MiB, because Go's collector lets the heap grow to twice
// its live bytes before collecting; that is the worker RSS the cache is
// budgeted. Payloads are the bytes /src holds, never a second copy. Too
// small a budget costs refetches, never correctness.
const CacheBytes = 4 << 20

// Cache is a byte-budgeted LRU of chunk payloads, keyed by hash, shared
// by every Materialize of one worker. Only bytes verified against their
// hash go in, and a payload is immutable once there: the same slice
// backs the files materialized from it (vfs.WriteFileParts), so a hit is
// served without a copy, and an entry evicted while a file still holds
// it stays readable there. A nil *Cache is a cache that holds nothing.
// A Cache is safe for concurrent use.
type Cache struct {
	budget int64

	mu     sync.Mutex
	used   int64
	lru    list.List // of *cacheEntry, the most recently used in front
	byHash map[string]*list.Element
}

type cacheEntry struct {
	hash string
	data []byte
}

// NewCache returns an empty cache that holds at most budget payload
// bytes.
func NewCache(budget int64) *Cache {
	return &Cache{budget: budget, byHash: make(map[string]*list.Element)}
}

// get returns the payload cached under hash, marking it most recently
// used. The caller writes none of its bytes.
func (c *Cache) get(hash string) ([]byte, bool) {
	if c == nil {
		return nil, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.byHash[hash]
	if !ok {
		return nil, false
	}
	c.lru.MoveToFront(e)
	return e.Value.(*cacheEntry).data, true
}

// put offers data, already verified to hash to hash, and from now on
// immutable. It is held, not copied, evicting the least recently used
// payloads to make room; one larger than the whole budget is not held.
func (c *Cache) put(hash string, data []byte) {
	if c == nil || int64(len(data)) > c.budget {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.byHash[hash]; ok {
		c.lru.MoveToFront(e)
		return
	}
	for c.used+int64(len(data)) > c.budget {
		old := c.lru.Remove(c.lru.Back()).(*cacheEntry)
		delete(c.byHash, old.hash)
		c.used -= int64(len(old.data))
	}
	c.byHash[hash] = c.lru.PushFront(&cacheEntry{hash: hash, data: data})
	c.used += int64(len(data))
}
