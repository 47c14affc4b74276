package shell

import (
	"bytes"
	"slices"
	"sync"

	"rai/internal/cnn"
)

// Bounds on the decoded-file cache. A job that names more distinct
// .hdf5 files than these hold evicts older entries; it cannot grow the
// cache past them.
const (
	cacheEntries = 8
	cacheBytes   = 64 << 20
)

// decoded is one .hdf5 file decoded as a model or as a dataset. It holds
// the vfs segments it was decoded from, so no other file can take their
// addresses while it lives. Nothing in it is written once it is cached,
// and no caller writes the network or dataset it points to.
type decoded struct {
	parts [][]byte
	model bool
	nw    *cnn.Network // when model
	ds    *cnn.Dataset // when not
	// cost is what the entry keeps resident, counted as the file's bytes
	// plus as many again for the values decoded from them.
	cost int64
}

// DecodeCache holds the .hdf5 files ./ece408 has decoded, keyed by the
// identity of their vfs segments. Segments are immutable, so the same
// segments are the same bytes: a file with other bytes, or the same
// bytes in other segments, misses and is decoded and checked like any
// other. A hit allocates nothing. One cache may serve any number of
// shells at once; the zero value is empty and ready.
type DecodeCache struct {
	mu      sync.Mutex
	entries []*decoded // least recently used first
	bytes   int64
}

// model returns the network the file of parts decodes to.
func (c *DecodeCache) model(parts [][]byte) (*cnn.Network, error) {
	e, err := c.get(parts, true)
	if err != nil {
		return nil, err
	}
	return e.nw, nil
}

// dataset returns the dataset the file of parts decodes to.
func (c *DecodeCache) dataset(parts [][]byte) (*cnn.Dataset, error) {
	e, err := c.get(parts, false)
	if err != nil {
		return nil, err
	}
	return e.ds, nil
}

// get returns the cached decode of parts, decoding it on a miss. A miss
// decodes the file's bytes in place when it is one segment, and caches
// the result unless decoding failed or it alone would exceed
// cacheBytes.
func (c *DecodeCache) get(parts [][]byte, model bool) (*decoded, error) {
	if e := c.lookup(parts, model); e != nil {
		return e, nil
	}
	data := contiguous(parts)
	e := &decoded{parts: parts, model: model, cost: 2 * int64(len(data))}
	var err error
	if model {
		e.nw, err = cnn.LoadModel(data)
	} else {
		e.ds, err = cnn.DecodeDataset(data)
	}
	if err != nil {
		return nil, err
	}
	if e.cost > cacheBytes {
		return e, nil
	}
	return c.add(e), nil
}

// lookup finds the entry for parts and marks it most recently used.
func (c *DecodeCache) lookup(parts [][]byte, model bool) *decoded {
	c.mu.Lock()
	defer c.mu.Unlock()
	for i, e := range c.entries {
		if e.model == model && sameSegments(e.parts, parts) {
			copy(c.entries[i:], c.entries[i+1:])
			c.entries[len(c.entries)-1] = e
			return e
		}
	}
	return nil
}

// add caches e, evicting the least recently used entries until it
// fits, and returns the entry now cached for e's key: e, or the one a
// concurrent miss on the same file added first.
func (c *DecodeCache) add(e *decoded) *decoded {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, have := range c.entries {
		if have.model == e.model && sameSegments(have.parts, e.parts) {
			return have
		}
	}
	for len(c.entries) >= cacheEntries || c.bytes+e.cost > cacheBytes {
		c.bytes -= c.entries[0].cost
		c.entries = slices.Delete(c.entries, 0, 1)
	}
	c.entries = append(c.entries, e)
	c.bytes += e.cost
	return e
}

// sameSegments reports whether a and b are the same segments, by
// address and length, in the same order.
func sameSegments(a, b [][]byte) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i]) != len(b[i]) || len(a[i]) > 0 && &a[i][0] != &b[i][0] {
			return false
		}
	}
	return true
}

// contiguous returns a file's bytes from its segments: the one segment
// itself, which the caller must not write, or a joined copy of several.
func contiguous(parts [][]byte) []byte {
	if len(parts) == 1 {
		return parts[0]
	}
	return bytes.Join(parts, nil)
}
