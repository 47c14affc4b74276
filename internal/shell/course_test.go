package shell

import (
	"bytes"
	"fmt"
	"io"
	"strings"
	"sync"
	"testing"

	"rai/internal/cnn"
	"rai/internal/project"
	"rai/internal/vfs"
)

const ece408Run = "./ece408 /data/test10.hdf5 /data/model.hdf5"

// slot builds one container the way a worker slot does: the project at
// /src, an empty /build, the course volume mounted read-only at /data,
// and the worker's decode cache. cmake and make have run.
func slot(t *testing.T, data *vfs.FS, im cnn.Impl, cache *DecodeCache) (*Shell, *vfs.FS) {
	t.Helper()
	fs := vfs.New()
	if err := project.WriteTo(fs, "/src", project.Spec{Impl: im}); err != nil {
		t.Fatal(err)
	}
	if err := fs.MkdirAll("/build"); err != nil {
		t.Fatal(err)
	}
	if err := fs.Mount("/data", data, "/data", true); err != nil {
		t.Fatal(err)
	}
	sh := New(fs, "/build", io.Discard, io.Discard, nil)
	sh.Decoded = cache
	for _, c := range []string{"cmake /src", "make"} {
		if _, err := sh.Run(c); err != nil {
			t.Fatal(err)
		}
	}
	return sh, fs
}

// cached returns c's entry for the file at p, or nil.
func cached(t *testing.T, c *DecodeCache, fs *vfs.FS, p string, model bool) *decoded {
	t.Helper()
	parts, _, err := fs.Segments(p)
	if err != nil {
		t.Fatal(err)
	}
	return c.lookup(parts, model)
}

// TestECE408RunAllocs is the allocation guard on the worker's graded
// step: once the course files are decoded and a network's scratch is
// sized, a ./ece408 run allocates only its command line, paths and
// result, not its model, data or activations.
func TestECE408RunAllocs(t *testing.T) {
	data, err := cnn.DataVolume(408, 12)
	if err != nil {
		t.Fatal(err)
	}
	sh, _ := slot(t, data, cnn.ImplIm2col, new(DecodeCache))
	run := func() {
		if res, err := sh.Run(ece408Run); err != nil || res.Accuracy != 1 {
			t.Fatalf("%+v %v", res, err)
		}
	}
	run()
	if n := testing.AllocsPerRun(100, run); n > 20 {
		t.Errorf("a warm %s allocates %v times, want at most 20", ece408Run, n)
	}
}

// TestCachedDataUnchangedByJobs runs the step with every kernel and then
// checks that the cached network and dataset still encode to the very
// bytes of the files they were decoded from.
func TestCachedDataUnchangedByJobs(t *testing.T) {
	data, err := cnn.DataVolume(408, 12)
	if err != nil {
		t.Fatal(err)
	}
	var cache DecodeCache
	for _, im := range cnn.Impls {
		sh, _ := slot(t, data, im, &cache)
		for i := 0; i < 2; i++ {
			if res, err := sh.Run(ece408Run); err != nil || res.Accuracy != 1 {
				t.Fatalf("%v: %+v %v", im, res, err)
			}
		}
	}
	model, ds := cached(t, &cache, data, "/data/model.hdf5", true), cached(t, &cache, data, "/data/test10.hdf5", false)
	if model == nil || ds == nil {
		t.Fatalf("course files not cached: model %v, dataset %v", model, ds)
	}
	for name, c := range map[string]struct {
		path   string
		encode func() ([]byte, error)
	}{
		"network": {"/data/model.hdf5", model.nw.SaveModel},
		"dataset": {"/data/test10.hdf5", ds.ds.Encode},
	} {
		got, err := c.encode()
		if err != nil {
			t.Fatal(err)
		}
		want, err := data.ReadFile(c.path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("the cached %s no longer encodes to %s", name, c.path)
		}
	}
}

// TestSlotsShareCachedNetwork runs the step in two containers at once,
// as a worker's two slots do: both must read the one cached network and
// dataset, and score them right. Under -race this is the check that
// sharing them is safe.
func TestSlotsShareCachedNetwork(t *testing.T) {
	data, err := cnn.DataVolume(408, 12)
	if err != nil {
		t.Fatal(err)
	}
	var cache DecodeCache
	var wg sync.WaitGroup
	for _, im := range []cnn.Impl{cnn.ImplIm2col, cnn.ImplParallel} {
		sh, _ := slot(t, data, im, &cache)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				if res, err := sh.Run(ece408Run); err != nil || res.Accuracy != 1 {
					t.Errorf("%v: %+v %v", im, res, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	cache.mu.Lock()
	n := len(cache.entries)
	cache.mu.Unlock()
	if n != 2 || cached(t, &cache, data, "/data/model.hdf5", true) == nil {
		t.Errorf("the slots left %d entries, want the course network and dataset", n)
	}
}

// TestStudentModelMissesCache puts a model with a narrower fc1/weights
// under /src after the course model is cached: it must miss, and fail
// LoadModel's geometry check rather than run. A file that shares a
// cached file's first byte but not its length must miss too.
func TestStudentModelMissesCache(t *testing.T) {
	data, err := cnn.DataVolume(408, 12)
	if err != nil {
		t.Fatal(err)
	}
	sh, fs := slot(t, data, cnn.ImplIm2col, new(DecodeCache))
	if _, err := sh.Run(ece408Run); err != nil {
		t.Fatal(err)
	}
	nw := cnn.NewNetwork(408)
	nw.FC1W = cnn.NewTensor(120, 100, 1, 1)
	model, err := nw.SaveModel()
	if err != nil {
		t.Fatal(err)
	}
	if err := fs.WriteFile("/src/model.hdf5", model); err != nil {
		t.Fatal(err)
	}
	var stderr bytes.Buffer
	sh.Stderr = &stderr
	res, err := sh.Run("./ece408 /data/test10.hdf5 /src/model.hdf5")
	if err == nil || res.ExitCode != 1 || res.RanInference {
		t.Fatalf("narrow model: %+v %v", res, err)
	}
	if !strings.Contains(stderr.String(), `bad model file: cnn: dataset "fc1/weights" has shape`) {
		t.Errorf("stderr = %q, want the geometry error", stderr.String())
	}
	if cached(t, sh.Decoded, fs, "/src/model.hdf5", true) != nil {
		t.Error("a model that failed to load was cached")
	}
	// Two files over one buffer, the second four bytes longer, start at
	// the same address: the cached first must not answer for the second,
	// whose trailing bytes make it corrupt.
	good, err := cnn.NewNetwork(7).SaveModel()
	if err != nil {
		t.Fatal(err)
	}
	buf := append(good, 0, 0, 0, 0)
	if err := fs.WriteFileParts("/build/a.hdf5", [][]byte{buf[:len(good)]}); err != nil {
		t.Fatal(err)
	}
	if err := fs.WriteFileParts("/build/b.hdf5", [][]byte{buf}); err != nil {
		t.Fatal(err)
	}
	if _, err := sh.Run("./ece408 /data/test10.hdf5 /build/a.hdf5"); err != nil {
		t.Fatal(err)
	}
	if res, err := sh.Run("./ece408 /data/test10.hdf5 /build/b.hdf5"); err == nil || res.RanInference {
		t.Errorf("a longer file over the same bytes ran: %+v %v", res, err)
	}
}

// TestCacheBound names more distinct model files than the cache holds:
// each job must still get its own network, and the cache must stay
// within its entry and byte bounds, evicting the least recently used.
func TestCacheBound(t *testing.T) {
	data, err := cnn.DataVolume(408, 12)
	if err != nil {
		t.Fatal(err)
	}
	var cache DecodeCache
	sh, fs := slot(t, data, cnn.ImplIm2col, &cache)
	for i := 0; i < cacheEntries+3; i++ {
		model, err := cnn.NewNetwork(uint64(1000 + i)).SaveModel()
		if err != nil {
			t.Fatal(err)
		}
		p := fmt.Sprintf("/build/model-%d.hdf5", i)
		if err := fs.WriteFile(p, model); err != nil {
			t.Fatal(err)
		}
		if _, err := sh.Run("./ece408 /data/test10.hdf5 " + p); err != nil {
			t.Fatal(err)
		}
		e := cached(t, &cache, fs, p, true)
		if e == nil {
			t.Fatalf("%s not cached", p)
		}
		if got, err := e.nw.SaveModel(); err != nil || !bytes.Equal(got, model) {
			t.Fatalf("%s: the cached network is not the file's (%v)", p, err)
		}
		cache.mu.Lock()
		n, size := len(cache.entries), cache.bytes
		var sum int64
		for _, e := range cache.entries {
			sum += e.cost
		}
		cache.mu.Unlock()
		if n > cacheEntries || size > cacheBytes || size != sum {
			t.Fatalf("after %s: %d entries of %d bytes (costs sum to %d), bounds %d and %d", p, n, size, sum, cacheEntries, cacheBytes)
		}
	}
	if cached(t, &cache, fs, "/build/model-0.hdf5", true) != nil {
		t.Error("the least recently used model was not evicted")
	}
}
