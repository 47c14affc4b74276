package cas

import (
	"bytes"
	"context"
	"fmt"
	"io/fs"
	"math/rand"
	"path"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"

	"rai/internal/vfs"
)

// chunkPool is a content-addressed set of payloads that hand-built trees
// refer to, and the Fetcher that serves them. It records every hash list
// it is asked for.
type chunkPool struct {
	data map[string][]byte

	mu    sync.Mutex
	asked [][]string
}

func (p *chunkPool) add(payload []byte) ChunkRef {
	h := HashHex(payload)
	p.data[h] = payload
	return ChunkRef{Hash: h, Size: int64(len(payload))}
}

func (p *chunkPool) GetChunks(ctx context.Context, hashes []string, each func(string, []byte) error) error {
	p.mu.Lock()
	p.asked = append(p.asked, slices.Clone(hashes))
	p.mu.Unlock()
	return fetchFunc(func(h string) ([]byte, error) {
		if data, ok := p.data[h]; ok {
			return data, nil
		}
		return nil, fmt.Errorf("no chunk %s", h)
	}).GetChunks(ctx, hashes, each)
}

func (p *chunkPool) takeAsked() [][]string {
	p.mu.Lock()
	defer p.mu.Unlock()
	asked := p.asked
	p.asked = nil
	return asked
}

// randomTrees is a seeded edit sequence over hand-built manifests: each
// tree adds, removes and rewrites files of the one before, and files
// draw their chunks from a growing pool, so chunks repeat within a file,
// across files and across trees. Empty files and empty directories come
// and go too.
func randomTrees(rng *rand.Rand, pool *chunkPool, n int) []*Manifest {
	var refs []ChunkRef
	newChunk := func() ChunkRef {
		payload := make([]byte, 1+rng.Intn(3*AvgChunk/4))
		rng.Read(payload)
		ref := pool.add(payload)
		refs = append(refs, ref)
		return ref
	}
	newFile := func() []ChunkRef {
		var chunks []ChunkRef
		for k := rng.Intn(5); k > 0; k-- { // 0: an empty file
			if len(refs) == 0 || rng.Intn(3) == 0 {
				chunks = append(chunks, newChunk())
			} else {
				chunks = append(chunks, refs[rng.Intn(len(refs))])
			}
		}
		return chunks
	}
	files := map[string][]ChunkRef{}
	dirs := map[string]bool{}
	var out []*Manifest
	for t := 0; t < n; t++ {
		for k := 1 + rng.Intn(4); k > 0; k-- {
			name := fmt.Sprintf("d%d/f%d", rng.Intn(3), rng.Intn(12))
			switch op := rng.Intn(4); {
			case op == 0:
				delete(files, name)
			default: // add or rewrite
				files[name] = newFile()
			}
		}
		if d := fmt.Sprintf("empty%d", rng.Intn(3)); rng.Intn(2) == 0 {
			dirs[d] = !dirs[d]
		}
		m := &Manifest{}
		for d, ok := range dirs {
			if ok {
				m.Dirs = append(m.Dirs, d)
			}
		}
		for name, chunks := range files {
			fe := FileEntry{Path: name, Chunks: chunks}
			for _, c := range chunks {
				fe.Size += c.Size
			}
			m.Files = append(m.Files, fe)
			m.TotalBytes += fe.Size
		}
		m.Seal()
		out = append(out, m)
	}
	return out
}

// snapshot is everything a materialized tree consists of: every path
// under root, "/" marking a directory, mapped to its bytes.
func snapshot(fsys *vfs.FS, root string) (map[string]string, error) {
	out := map[string]string{}
	err := fs.WalkDir(fsys.IOFS(root), ".", func(rel string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		p := path.Join(root, rel)
		if d.IsDir() {
			out[p+"/"] = ""
			return nil
		}
		data, err := fsys.ReadFile(p)
		out[p] = string(data)
		return err
	})
	return out, err
}

// mustSnapshot is snapshot on the test's own goroutine.
func mustSnapshot(t *testing.T, fsys *vfs.FS, root string) map[string]string {
	t.Helper()
	out, err := snapshot(fsys, root)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// checkCache asserts the cache's books: within budget, used the sum of
// what it holds, and every payload the bytes of its hash.
func checkCache(t *testing.T, c *Cache) {
	t.Helper()
	c.mu.Lock()
	defer c.mu.Unlock()
	var used int64
	for e := c.lru.Front(); e != nil; e = e.Next() {
		ent := e.Value.(*cacheEntry)
		if HashHex(ent.data) != ent.hash || c.byHash[ent.hash] != e {
			t.Fatalf("cache holds %d bytes under %s that are not its chunk", len(ent.data), ent.hash)
		}
		used += int64(len(ent.data))
	}
	if used != c.used || used > c.budget || len(c.byHash) != c.lru.Len() {
		t.Fatalf("cache books: %d bytes in %d entries (%d indexed), counted %d, budget %d", used, c.lru.Len(), len(c.byHash), c.used, c.budget)
	}
}

// lacking lists, in first-use order, the chunks of m the cache does not
// hold.
func (c *Cache) lacking(m *Manifest) []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	var out []string
	for _, h := range m.ChunkSet() {
		if _, ok := c.byHash[h]; !ok {
			out = append(out, h)
		}
	}
	return out
}

// TestCacheEquivalentToColdFetch: materializing a seeded edit sequence
// of trees through one shared cache is observationally the same as
// fetching each cold — identical paths, directories and bytes — at a
// budget of nothing, one smaller than a single tree (so entries are
// evicted part-way through a materialization), and one that holds every
// tree. The fetcher is asked for exactly the chunks the cache lacked, in
// first-use order, and not at all when it lacked none.
func TestCacheEquivalentToColdFetch(t *testing.T) {
	for _, seed := range []int64{408, 1117, 7} {
		pool := &chunkPool{data: map[string][]byte{}}
		trees := randomTrees(rand.New(rand.NewSource(seed)), pool, 40)
		want := make([]map[string]string, len(trees))
		for i, m := range trees {
			dst := vfs.New()
			if _, err := Materialize(ctx, m, pool, nil, dst, "/src"); err != nil {
				t.Fatalf("seed %d tree %d cold: %v", seed, i, err)
			}
			want[i] = mustSnapshot(t, dst, "/src")
		}
		pool.takeAsked()
		for _, budget := range []int64{0, trees[0].TotalBytes / 2, 1 << 30} {
			cache := NewCache(budget)
			var hits, evictedMidRun int
			for i, m := range trees {
				lacking := cache.lacking(m)
				before := cache.lru.Len()
				dst := vfs.New()
				st, err := Materialize(ctx, m, pool, cache, dst, "/src")
				if err != nil {
					t.Fatalf("seed %d budget %d tree %d: %v", seed, budget, i, err)
				}
				if got := mustSnapshot(t, dst, "/src"); !reflect.DeepEqual(got, want[i]) {
					t.Fatalf("seed %d budget %d tree %d differs from the cold fetch:\n got %v\nwant %v", seed, budget, i, got, want[i])
				}
				asked := pool.takeAsked()
				if len(lacking) == 0 && len(asked) != 0 || len(lacking) > 0 && (len(asked) != 1 || !slices.Equal(asked[0], lacking)) {
					t.Fatalf("seed %d budget %d tree %d: fetcher asked for %v, the cache lacked %v", seed, budget, i, asked, lacking)
				}
				if st.Fetched != len(lacking) || st.Cached != len(m.ChunkSet())-len(lacking) {
					t.Fatalf("seed %d budget %d tree %d: stats %+v, lacked %d of %d", seed, budget, i, st, len(lacking), len(m.ChunkSet()))
				}
				checkCache(t, cache)
				hits += st.Cached
				if before+st.Fetched > cache.lru.Len() && st.Cached > 0 {
					evictedMidRun++
				}
			}
			switch {
			case budget == 0 && hits != 0:
				t.Errorf("seed %d: a zero budget served %d hits", seed, hits)
			case budget > 0 && hits == 0:
				t.Errorf("seed %d budget %d: no hits over %d trees", seed, budget, len(trees))
			case budget == trees[0].TotalBytes/2 && evictedMidRun == 0:
				t.Errorf("seed %d budget %d: no materialization both hit and evicted", seed, budget)
			}
		}
	}
}

// TestCacheSharedByConcurrentMaterializations: two slots materialize
// overlapping trees through one cache small enough to evict while they
// run (run it under -race); every tree comes out as its cold fetch did.
func TestCacheSharedByConcurrentMaterializations(t *testing.T) {
	pool := &chunkPool{data: map[string][]byte{}}
	trees := randomTrees(rand.New(rand.NewSource(408)), pool, 24)
	want := make([]map[string]string, len(trees))
	for i, m := range trees {
		dst := vfs.New()
		if _, err := Materialize(ctx, m, pool, nil, dst, "/src"); err != nil {
			t.Fatal(err)
		}
		want[i] = mustSnapshot(t, dst, "/src")
	}
	cache := NewCache(trees[0].TotalBytes)
	var wg sync.WaitGroup
	for slot := 0; slot < 2; slot++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := 0; round < 3; round++ {
				for i := slot; i < len(trees); i += 2 {
					dst := vfs.New()
					if _, err := Materialize(ctx, trees[i], pool, cache, dst, "/src"); err != nil {
						t.Errorf("slot %d tree %d: %v", slot, i, err)
						return
					}
					if got, err := snapshot(dst, "/src"); err != nil || !reflect.DeepEqual(got, want[i]) {
						t.Errorf("slot %d tree %d differs from the cold fetch (%v)", slot, i, err)
					}
				}
			}
		}()
	}
	wg.Wait()
	checkCache(t, cache)
}

// poisonOnce is a Fetcher that serves one chunk's payload altered, once.
type poisonOnce struct {
	*chunkPool
	victim string
	done   bool
}

func (p *poisonOnce) GetChunks(ctx context.Context, hashes []string, each func(string, []byte) error) error {
	return p.chunkPool.GetChunks(ctx, hashes, func(h string, data []byte) error {
		if h == p.victim && !p.done {
			p.done = true
			data = bytes.Clone(data)
			data[0] ^= 0xff
		}
		return each(h, data)
	})
}

// TestPoisonedChunkNeverCached: a fetch returning bytes that do not hash
// to their name fails the materialization as it always has, the bytes
// never enter the cache, and the next materialization fetches the chunk
// again and gets the tree right.
func TestPoisonedChunkNeverCached(t *testing.T) {
	pool := &chunkPool{data: map[string][]byte{}}
	m := randomTrees(rand.New(rand.NewSource(1117)), pool, 6)[5]
	order := m.ChunkSet()
	victim := order[len(order)/2]
	fetcher := &poisonOnce{chunkPool: pool, victim: victim}
	cache := NewCache(1 << 30)
	_, err := Materialize(ctx, m, fetcher, cache, vfs.New(), "/src")
	if err == nil || !strings.Contains(err.Error(), victim+": fetched") {
		t.Fatalf("err = %v, want the poisoned chunk %s refused", err, victim)
	}
	if !slices.Contains(cache.lacking(m), victim) {
		t.Fatal("poisoned chunk entered the cache")
	}
	checkCache(t, cache)
	pool.takeAsked()
	dst := vfs.New()
	if _, err := Materialize(ctx, m, fetcher, cache, dst, "/src"); err != nil {
		t.Fatal(err)
	}
	if asked := pool.takeAsked(); len(asked) != 1 || !slices.Contains(asked[0], victim) {
		t.Errorf("second materialization asked for %v, want a fetch naming %s", asked, victim)
	}
	cold := vfs.New()
	if _, err := Materialize(ctx, m, pool, nil, cold, "/src"); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(mustSnapshot(t, dst, "/src"), mustSnapshot(t, cold, "/src")) {
		t.Error("tree after the poisoned fetch differs from a cold fetch")
	}
}

// TestSharedSegmentsStayImmutable: files built from cached chunks share
// the cache's bytes, and nothing done to them reaches those bytes — a
// chunk evicted while a filesystem holds it stays readable there, and
// WriteFile over a materialized file (outside a read-only mount) leaves
// the cached payloads as they were. WriteFile copies the caller's
// buffer.
func TestSharedSegmentsStayImmutable(t *testing.T) {
	pool := &chunkPool{data: map[string][]byte{}}
	a, b := bytes.Repeat([]byte("a"), 3000), bytes.Repeat([]byte("b"), 5000)
	ra, rb := pool.add(a), pool.add(b)
	tree := &Manifest{Files: []FileEntry{
		{Path: "ab", Size: 8000, Chunks: []ChunkRef{ra, rb}},
		{Path: "aa", Size: 6000, Chunks: []ChunkRef{ra, ra}},
	}, TotalBytes: 14000}
	tree.Seal()
	other := &Manifest{Files: []FileEntry{{Path: "c", Size: 8000, Chunks: []ChunkRef{pool.add(bytes.Repeat([]byte("c"), 8000))}}}, TotalBytes: 8000}
	other.Seal()

	cache := NewCache(8000)
	held := vfs.New()
	if _, err := Materialize(ctx, tree, pool, cache, held, "/src"); err != nil {
		t.Fatal(err)
	}
	if _, err := Materialize(ctx, other, pool, cache, vfs.New(), "/src"); err != nil {
		t.Fatal(err)
	}
	if lacking := cache.lacking(tree); len(lacking) != 2 {
		t.Fatalf("the cache still holds %d of the first tree's chunks; the fixture must evict both", 2-len(lacking))
	}
	for p, want := range map[string]string{"/src/ab": string(a) + string(b), "/src/aa": string(a) + string(a)} {
		if got, err := held.ReadFile(p); err != nil || string(got) != want {
			t.Errorf("%s after its chunks were evicted: %d bytes, %v", p, len(got), err)
		}
	}

	cache = NewCache(1 << 20)
	dst := vfs.New()
	if _, err := Materialize(ctx, tree, pool, cache, dst, "/src"); err != nil {
		t.Fatal(err)
	}
	buf := []byte("rewritten")
	if err := dst.WriteFile("/src/ab", buf); err != nil {
		t.Fatal(err)
	}
	buf[0] = 'X'
	got, _ := dst.ReadFile("/src/aa")
	got[0] = 'Y'
	if got, _ := dst.ReadFile("/src/ab"); string(got) != "rewritten" {
		t.Errorf("WriteFile aliased the caller's buffer: %q", got)
	}
	if got, _ := dst.ReadFile("/src/aa"); string(got) != string(a)+string(a) {
		t.Errorf("materialized file reads %d bytes after a caller wrote to its copy, want the two chunks", len(got))
	}
	checkCache(t, cache)
	again := vfs.New()
	if st, err := Materialize(ctx, tree, pool, cache, again, "/src"); err != nil || st.Cached != 2 {
		t.Fatalf("rematerialize: %+v, %v; want both chunks from the cache", st, err)
	}
	if got := mustSnapshot(t, again, "/src"); got["/src/ab"] != string(a)+string(b) || got["/src/aa"] != string(a)+string(a) {
		t.Error("cached chunks changed under writes to a file built from them")
	}
}
