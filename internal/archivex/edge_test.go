package archivex

// Edge-case round trips (DESIGN.md §16): the delta path replaces the
// tar archive with a manifest that the worker materializes, so the two
// transports must reproduce byte-identical trees — otherwise the build
// cache would key the same project differently depending on which wire
// format carried it. These tests feed both paths the awkward shapes
// real student trees produce and assert the cas tree hash (the build
// cache's identity) agrees everywhere.

import (
	"bytes"
	"context"
	"fmt"
	"io/fs"
	"testing"

	"rai/internal/cas"
	"rai/internal/vfs"
)

// sourceFetcher serves cas.Materialize's bulk read from the tree the
// manifest was built from, handing each payload over as a copy of its
// own: a Source's payload is valid only until its next Chunk call.
type sourceFetcher struct{ src cas.Source }

func (f sourceFetcher) GetChunks(_ context.Context, hashes []string, each func(string, []byte) error) error {
	for _, h := range hashes {
		data, err := f.src.Chunk(h)
		if err != nil {
			return err
		}
		if err := each(h, bytes.Clone(data)); err != nil {
			return err
		}
	}
	return nil
}

// edgeTree renders a project with the shapes that historically break
// archivers: empty directories (alone and nested), zero-byte files,
// deep nesting, names needing escaping in object-store keys, and one
// file wide enough to span several content-defined chunks.
func edgeTree(t *testing.T) *vfs.FS {
	t.Helper()
	f := vfs.New()
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(f.WriteFile("/proj/rai-build.yml", []byte("rai:\n  version: 0.1\n")))
	must(f.WriteFile("/proj/zero.bin", nil))
	must(f.WriteFile("/proj/a/b/c/d/e/f/g/h/deep.txt", []byte("bottom of the tree\n")))
	must(f.WriteFile("/proj/src/100% gpu?.cu", []byte("__global__ void k(){}\n")))
	must(f.WriteFile("/proj/src/name with spaces & #hash.h", []byte("#pragma once\n")))
	must(f.WriteFile("/proj/src/odd%2Fname.txt", []byte("percent-encoded slash in the name itself\n")))
	must(f.MkdirAll("/proj/empty"))
	must(f.MkdirAll("/proj/nested/also empty/inner"))
	var w bytes.Buffer
	for i := 0; w.Len() < 4*cas.AvgChunk; i++ {
		fmt.Fprintf(&w, "static const float w%06d = %d.%06de-3f;\n", i, i%97, i*i%999983)
	}
	must(f.WriteFile("/proj/src/weights.h", w.Bytes()))
	return f
}

// walkTree flattens a subtree into rel→content for files and rel→nil
// markers for directories, so two trees can be compared exactly.
func walkTree(t *testing.T, f *vfs.FS, root string) (files map[string][]byte, dirs map[string]bool) {
	t.Helper()
	files = make(map[string][]byte)
	dirs = make(map[string]bool)
	tree := f.IOFS(root)
	err := fs.WalkDir(tree, ".", func(rel string, d fs.DirEntry, err error) error {
		if err != nil || rel == "." {
			return err
		}
		if d.IsDir() {
			dirs[rel] = true
			return nil
		}
		data, err := fs.ReadFile(tree, rel)
		if err != nil {
			return err
		}
		files[rel] = data
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return files, dirs
}

func assertSameTree(t *testing.T, want, got *vfs.FS, wantRoot, gotRoot string) {
	t.Helper()
	wf, wd := walkTree(t, want, wantRoot)
	gf, gd := walkTree(t, got, gotRoot)
	for rel, data := range wf {
		other, ok := gf[rel]
		if !ok {
			t.Errorf("file %q missing after round trip", rel)
			continue
		}
		if !bytes.Equal(data, other) {
			t.Errorf("file %q content mismatch: %d bytes vs %d", rel, len(data), len(other))
		}
	}
	for rel := range gf {
		if _, ok := wf[rel]; !ok {
			t.Errorf("unexpected extra file %q after round trip", rel)
		}
	}
	for rel := range wd {
		if !gd[rel] {
			t.Errorf("directory %q missing after round trip", rel)
		}
	}
	for rel := range gd {
		if !wd[rel] {
			t.Errorf("unexpected extra directory %q after round trip", rel)
		}
	}
}

// TestPackUnpackEdgeTree proves the tar transport reproduces the edge
// tree exactly: every byte, every empty directory, nothing extra.
func TestPackUnpackEdgeTree(t *testing.T) {
	f := edgeTree(t)
	data, err := PackVFS(f, "/proj")
	if err != nil {
		t.Fatal(err)
	}
	out := vfs.New()
	if err := UnpackVFS(data, out, "/dst", Limits{}); err != nil {
		t.Fatal(err)
	}
	assertSameTree(t, f, out, "/proj", "/dst")
}

// TestEdgeTreeHashStableAcrossTransports: the cas tree hash is an
// identity of the content, not of the transport — the original tree,
// its tar round trip and its manifest materialization must all hash
// alike, or cas.Decode's tree-hash check would depend on how a tree
// traveled.
func TestEdgeTreeHashStableAcrossTransports(t *testing.T) {
	f := edgeTree(t)
	m, src, err := cas.Build(f.IOFS("/proj"), nil)
	if err != nil {
		t.Fatal(err)
	}

	// Tar round trip.
	data, err := PackVFS(f, "/proj")
	if err != nil {
		t.Fatal(err)
	}
	tarred := vfs.New()
	if err := UnpackVFS(data, tarred, "/dst", Limits{}); err != nil {
		t.Fatal(err)
	}
	mt, _, err := cas.Build(tarred.IOFS("/dst"), nil)
	if err != nil {
		t.Fatal(err)
	}
	if mt.TreeHash != m.TreeHash {
		t.Errorf("tar round trip changed tree hash: %s vs %s", mt.TreeHash, m.TreeHash)
	}

	// Manifest materialization, fetching chunks from the source tree.
	mat := vfs.New()
	if _, err := cas.Materialize(context.Background(), m, sourceFetcher{src}, nil, mat, "/dst"); err != nil {
		t.Fatal(err)
	}
	mm, _, err := cas.Build(mat.IOFS("/dst"), nil)
	if err != nil {
		t.Fatal(err)
	}
	if mm.TreeHash != m.TreeHash {
		t.Errorf("materialization changed tree hash: %s vs %s", mm.TreeHash, m.TreeHash)
	}
	assertSameTree(t, f, mat, "/proj", "/dst")
}

// TestMaterializedTreeMatchesUnpackedArchive closes the loop from the
// worker's point of view: unpack-the-tar and materialize-the-manifest
// must hand the sandbox the same /src, byte for byte.
func TestMaterializedTreeMatchesUnpackedArchive(t *testing.T) {
	f := edgeTree(t)
	m, src, err := cas.Build(f.IOFS("/proj"), nil)
	if err != nil {
		t.Fatal(err)
	}
	data, err := PackVFS(f, "/proj")
	if err != nil {
		t.Fatal(err)
	}
	tarred := vfs.New()
	if err := UnpackVFS(data, tarred, "/src", Limits{}); err != nil {
		t.Fatal(err)
	}
	mat := vfs.New()
	if _, err := cas.Materialize(context.Background(), m, sourceFetcher{src}, nil, mat, "/src"); err != nil {
		t.Fatal(err)
	}
	assertSameTree(t, tarred, mat, "/src", "/src")
}
