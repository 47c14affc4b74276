package cas

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"io/fs"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"
)

// openLog is an fs.FS that passes every call on to fsys and records
// the files opened through it, by name, until taken, and the
// directories listed. onOpen, when set, runs before each open. It
// serves Stat and ReadDir itself, so a walk opens no directory and
// every open it records is a file's.
type openLog struct {
	fsys   fs.FS
	opens  map[string]int
	listed map[string]bool
	onOpen func(rel string)
}

func logOpens(fsys fs.FS) *openLog {
	return &openLog{fsys: fsys, opens: map[string]int{}, listed: map[string]bool{}}
}

func (l *openLog) Open(name string) (fs.File, error) {
	l.opens[name]++
	if l.onOpen != nil {
		l.onOpen(name)
	}
	return l.fsys.Open(name)
}

func (l *openLog) Stat(name string) (fs.FileInfo, error) { return fs.Stat(l.fsys, name) }

func (l *openLog) ReadDir(name string) ([]fs.DirEntry, error) {
	l.listed[name] = true
	return fs.ReadDir(l.fsys, name)
}

// take returns the files opened since the last take.
func (l *openLog) take() map[string]bool {
	rels := map[string]bool{}
	for rel := range l.opens {
		rels[rel] = true
	}
	l.opens = map[string]int{}
	return rels
}

// settle waits until the filesystem clock has moved past every write
// made so far, so that nothing written before it is racy for the next
// scan. dir is scratch space on the same filesystem.
func settle(t *testing.T, dir string) {
	t.Helper()
	probe := func() int64 {
		f, err := os.CreateTemp(dir, "tick")
		if err != nil {
			t.Fatal(err)
		}
		defer os.Remove(f.Name())
		defer f.Close()
		fi, err := f.Stat()
		if err != nil {
			t.Fatal(err)
		}
		return fi.ModTime().UnixNano()
	}
	for first := probe(); probe() <= first; {
		time.Sleep(time.Millisecond)
	}
}

// buildBoth builds the tree through idx and with no index, fails the
// test unless the two manifests encode to the same bytes and every chunk
// the indexed build's Source serves hashes to its name, and returns the
// files the indexed build opened.
func buildBoth(t *testing.T, opens *openLog, idx *DirIndex) (*Manifest, map[string]bool) {
	t.Helper()
	opens.take()
	m, src, err := Build(opens, idx)
	if err != nil {
		t.Fatal(err)
	}
	opened := opens.take()
	want, _, err := Build(opens, nil)
	if err != nil {
		t.Fatal(err)
	}
	opens.take()
	if !bytes.Equal(m.Encode(), want.Encode()) {
		t.Fatalf("indexed build differs from a full scan:\n index %s\n  full %s", m.Encode(), want.Encode())
	}
	for _, h := range m.ChunkSet() {
		if data, err := src.Chunk(h); err != nil || HashHex(data) != h {
			t.Fatalf("source chunk %s: %v", h, err)
		}
	}
	return m, opened
}

// scanTree lists root's regular files and directories the way Build
// selects them, sorted.
func scanTree(t *testing.T, root string) (files, dirs []string) {
	t.Helper()
	err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, p)
		rel = filepath.ToSlash(rel)
		switch {
		case rel == ".":
		case d.IsDir() && skipDir(d.Name()):
			return filepath.SkipDir
		case d.IsDir():
			dirs = append(dirs, rel)
		case d.Type().IsRegular():
			files = append(files, rel)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return files, dirs
}

func set(rels ...string) map[string]bool {
	s := map[string]bool{}
	for _, r := range rels {
		s[r] = true
	}
	return s
}

func sortedKeys(s map[string]bool) []string {
	var out []string
	for k := range s {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// TestIndexNeverChangesTheAnswer is the equivalence argument as a test:
// through a seeded sequence of edits to a real directory — same-size
// rewrites, rewrites whose mtime is put back, rename-over, deletes and
// re-adds, file/directory swaps, symlinks and .git appearing, empty
// files and directories, chmod — a build through the index encodes to
// the same bytes as a build with none, and reads only the files the
// edit touched.
func TestIndexNeverChangesTheAnswer(t *testing.T) {
	root, cacheDir := t.TempDir(), t.TempDir()
	files, dirs := edgeTree()
	writeTree(t, root, files, dirs...)
	idx := &DirIndex{path: filepath.Join(cacheDir, "index")}
	opens := logOpens(os.DirFS(root))
	rng := rand.New(rand.NewSource(29))
	full := func(rel string) string { return filepath.Join(root, filepath.FromSlash(rel)) }
	content := func(n int) []byte {
		b := make([]byte, n)
		rng.Read(b)
		return b
	}
	write := func(rel string, data []byte) {
		if err := os.WriteFile(full(rel), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	size := func(rel string) int {
		fi, err := os.Stat(full(rel))
		if err != nil {
			t.Fatal(err)
		}
		return int(fi.Size())
	}
	sizes := []int{0, 1, 100, MinChunk, 3 * AvgChunk, MaxChunk + 5}

	edits := []struct {
		name string
		do   func(step int, files, dirs []string) map[string]bool
	}{
		{"rewrite, same size", func(_ int, files, _ []string) map[string]bool {
			f := files[rng.Intn(len(files))]
			write(f, content(size(f)))
			return set(f)
		}},
		{"rewrite, mtime put back", func(_ int, files, _ []string) map[string]bool {
			f := files[rng.Intn(len(files))]
			fi, err := os.Stat(full(f))
			if err != nil {
				t.Fatal(err)
			}
			write(f, content(int(fi.Size())))
			if err := os.Chtimes(full(f), fi.ModTime(), fi.ModTime()); err != nil {
				t.Fatal(err)
			}
			return set(f)
		}},
		{"rename over, same size and mtime", func(_ int, files, _ []string) map[string]bool {
			f := files[rng.Intn(len(files))]
			fi, err := os.Stat(full(f))
			if err != nil {
				t.Fatal(err)
			}
			tmp := filepath.Join(cacheDir, "new")
			if err := os.WriteFile(tmp, content(int(fi.Size())), 0o644); err != nil {
				t.Fatal(err)
			}
			if err := os.Chtimes(tmp, fi.ModTime(), fi.ModTime()); err != nil {
				t.Fatal(err)
			}
			if err := os.Rename(tmp, full(f)); err != nil {
				t.Fatal(err)
			}
			return set(f)
		}},
		{"delete", func(_ int, files, _ []string) map[string]bool {
			if err := os.Remove(full(files[rng.Intn(len(files))])); err != nil {
				t.Fatal(err)
			}
			return nil
		}},
		{"add", func(step int, _, dirs []string) map[string]bool {
			f := fmt.Sprintf("new-%d", step)
			if len(dirs) > 0 && rng.Intn(2) == 0 {
				f = dirs[rng.Intn(len(dirs))] + "/" + f
			}
			write(f, content(sizes[rng.Intn(len(sizes))]))
			return set(f)
		}},
		{"file becomes a directory", func(_ int, files, _ []string) map[string]bool {
			f := files[rng.Intn(len(files))]
			if err := os.Remove(full(f)); err != nil {
				t.Fatal(err)
			}
			if err := os.Mkdir(full(f), 0o755); err != nil {
				t.Fatal(err)
			}
			write(f+"/inside", content(100))
			return set(f + "/inside")
		}},
		{"directory becomes a file", func(_ int, _, dirs []string) map[string]bool {
			if len(dirs) == 0 {
				return nil
			}
			d := dirs[rng.Intn(len(dirs))]
			if err := os.RemoveAll(full(d)); err != nil {
				t.Fatal(err)
			}
			write(d, content(100))
			return set(d)
		}},
		{"symlink appears", func(step int, files, _ []string) map[string]bool {
			if err := os.Symlink(full(files[rng.Intn(len(files))]), full(fmt.Sprintf("link-%d", step))); err != nil {
				t.Fatal(err)
			}
			return nil
		}},
		{".git appears", func(step int, _, _ []string) map[string]bool {
			writeTree(t, root, map[string]string{fmt.Sprintf(".git/objects/%d", step): "blob"})
			return nil
		}},
		{"empty file and directory", func(step int, _, _ []string) map[string]bool {
			writeTree(t, root, map[string]string{fmt.Sprintf("empty-%d", step): ""}, fmt.Sprintf("dir-%d/sub", step))
			return set(fmt.Sprintf("empty-%d", step))
		}},
		{"chmod", func(_ int, files, _ []string) map[string]bool {
			f := files[rng.Intn(len(files))]
			fi, err := os.Stat(full(f))
			if err != nil {
				t.Fatal(err)
			}
			if err := os.Chmod(full(f), fi.Mode()^0o111); err != nil {
				t.Fatal(err)
			}
			return set(f)
		}},
		{"nothing", func(int, []string, []string) map[string]bool { return nil }},
	}

	settle(t, cacheDir)
	if _, opened := buildBoth(t, opens, idx); len(opened) != len(files) {
		t.Fatalf("first build read %d files, want all %d", len(opened), len(files))
	}
	reused := 0
	for step := 0; step < 80; step++ {
		files, dirs := scanTree(t, root)
		e := edits[rng.Intn(len(edits))]
		if len(files) == 0 {
			e = edits[4] // add
		}
		edited := e.do(step, files, dirs)
		settle(t, cacheDir)
		m, opened := buildBoth(t, opens, idx)
		for rel := range opened {
			if !edited[rel] {
				t.Errorf("step %d (%s): read %s, which the edit did not touch (edited %v)", step, e.name, rel, sortedKeys(edited))
			}
		}
		reused += len(m.Files) - len(opened)
	}
	if reused == 0 {
		t.Fatal("no build reused an index entry")
	}
}

// TestIndexRehashesRacyFiles: a file written after the stamp of the scan
// that read it — here, while that scan runs — is read again by the next
// scan although its stat data has not changed since, and is trusted
// once a scan has recorded it with the clock moved on.
func TestIndexRehashesRacyFiles(t *testing.T) {
	root, cacheDir := t.TempDir(), t.TempDir()
	writeTree(t, root, map[string]string{"a": "first version of a\n", "b": "b never changes\n"})
	idx := &DirIndex{path: filepath.Join(cacheDir, "index")}
	opens := logOpens(os.DirFS(root))
	settle(t, cacheDir)

	rewritten := false
	opens.onOpen = func(rel string) {
		if rel == "a" && !rewritten {
			rewritten = true
			if err := os.WriteFile(filepath.Join(root, "a"), []byte("second version of a\n"), 0o644); err != nil {
				t.Error(err)
			}
		}
	}
	if _, opened := buildBoth(t, opens, idx); len(opened) != 2 || !rewritten {
		t.Fatalf("first build read %v", sortedKeys(opened))
	}
	opens.onOpen = nil
	settle(t, cacheDir)
	if _, opened := buildBoth(t, opens, idx); len(opened) != 1 || !opened["a"] {
		t.Fatalf("after a write during the scan, the next build read %v, want [a]", sortedKeys(opened))
	}
	settle(t, cacheDir)
	if _, opened := buildBoth(t, opens, idx); len(opened) != 0 {
		t.Fatalf("unchanged tree, settled clock: read %v", sortedKeys(opened))
	}
}

// TestFreshIsWhatTheRecordDoesNotName: Fresh lists the chunks of the
// files a scan read that the index's last record does not name. With no
// record — no index, or its first scan — it lists none; an edit lists
// the edited file's new chunks once, however often they occur; files
// read again because their entries are racy list none, since the record
// names their chunks all the same.
func TestFreshIsWhatTheRecordDoesNotName(t *testing.T) {
	root, cacheDir := t.TempDir(), t.TempDir()
	writeTree(t, root, map[string]string{"a": "first version of a\n", "b": "b never changes\n"})
	idx := &DirIndex{path: filepath.Join(cacheDir, "index")}
	fresh := func(idx *DirIndex) []string {
		t.Helper()
		_, src, err := Build(os.DirFS(root), idx)
		if err != nil {
			t.Fatal(err)
		}
		return src.Fresh()
	}
	if got := fresh(nil); len(got) != 0 {
		t.Errorf("no index: fresh %v", got)
	}
	if got := fresh(idx); len(got) != 0 {
		t.Errorf("first scan, no record: fresh %v", got)
	}
	blob := make([]byte, 5*AvgChunk)
	rand.New(rand.NewSource(408)).Read(blob)
	edit := strings.Repeat(string(blob), 3)
	writeTree(t, root, map[string]string{"a": edit})
	want := []string{}
	for _, c := range chunkFile("a", []byte(edit)).Chunks {
		if !slices.Contains(want, c.Hash) {
			want = append(want, c.Hash)
		}
	}
	if len(want) >= len(chunkFile("a", []byte(edit)).Chunks) {
		t.Fatalf("fixture: the edit's chunks do not repeat")
	}
	if got := fresh(idx); !slices.Equal(got, want) {
		t.Errorf("after an edit: fresh %v, want %v", got, want)
	}
	settle(t, cacheDir)
	if got := fresh(idx); len(got) != 0 {
		t.Errorf("unchanged tree: fresh %v", got)
	}
	data, err := os.ReadFile(idx.path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(idx.path, encodeIndex(0, decodeIndex(data)), 0o600); err != nil {
		t.Fatal(err)
	}
	opens := logOpens(os.DirFS(root))
	if _, src, err := Build(opens, idx); err != nil || len(src.Fresh()) != 0 || opens.opens["a"] == 0 {
		t.Errorf("every entry racy: read a %d times, fresh %v, %v", opens.opens["a"], src.Fresh(), err)
	}
}

// encodeIndex writes entries as an index file of the given stamp, with a
// valid checksum.
func encodeIndex(stamp int64, entries map[string]indexEntry) []byte {
	body := indexHeader(stamp)
	rels := make([]string, 0, len(entries))
	for rel := range entries {
		rels = append(rels, rel)
	}
	sort.Strings(rels)
	for _, rel := range rels {
		e := entries[rel]
		body = appendEntry(body, FileEntry{Path: rel, Size: e.key.size, Chunks: e.refs}, e.key)
	}
	return sealIndex(body)
}

// builtIndex builds the tree twice through a fresh index, the clock settled
// before each, and returns the index, its file's bytes and its entries.
func builtIndex(t *testing.T, opens *openLog) (*DirIndex, []byte, map[string]indexEntry) {
	t.Helper()
	cacheDir := t.TempDir()
	idx := &DirIndex{path: filepath.Join(cacheDir, "index")}
	for i := 0; i < 2; i++ {
		settle(t, cacheDir)
		buildBoth(t, opens, idx)
	}
	data, err := os.ReadFile(idx.path)
	if err != nil {
		t.Fatal(err)
	}
	entries := decodeIndex(data)
	if entries == nil {
		t.Fatal("the index Build wrote does not decode")
	}
	return idx, data, entries
}

// TestDamagedIndexIsEmpty: an index file that is torn, corrupt, foreign
// or inconsistent is an empty index, never an error and never a wrong
// answer: every file is read again.
func TestDamagedIndexIsEmpty(t *testing.T) {
	root := t.TempDir()
	files, dirs := edgeTree()
	writeTree(t, root, files, dirs...)
	opens := logOpens(os.DirFS(root))
	idx, data, entries := builtIndex(t, opens)
	if _, opened := buildBoth(t, opens, idx); len(opened) != 0 {
		t.Fatalf("unchanged tree read %v through a sound index", sortedKeys(opened))
	}

	hash := entries["src/data.raw"].refs[0].Hash
	at := bytes.Index(data, []byte(hash))
	flipped := bytes.Clone(data)
	if flipped[at] == '0' {
		flipped[at] = '1'
	} else {
		flipped[at] = '0'
	}
	short := map[string]indexEntry{}
	for rel, e := range entries {
		if len(e.refs) > 1 {
			e.refs = e.refs[:len(e.refs)-1]
		}
		short[rel] = e
	}
	future := time.Now().Add(time.Hour).UnixNano()
	foreign := bytes.Clone(data[:len(data)-32])
	foreign[len(indexMagic)] = indexVersion + 1

	for name, bad := range map[string][]byte{
		"a chunk hash's digit changed":       flipped,
		"last byte lost":                     data[:len(data)-1],
		"torn in half":                       data[:len(data)/2],
		"empty":                              {},
		"not an index":                       []byte("not an index\n"),
		"next version":                       sealIndex(foreign),
		"chunk sizes short of the file size": encodeIndex(future, short),
	} {
		if err := os.WriteFile(idx.path, bad, 0o600); err != nil {
			t.Fatal(err)
		}
		if _, opened := buildBoth(t, opens, idx); len(opened) != len(files) {
			t.Errorf("%s: read %d files, want all %d", name, len(opened), len(files))
		}
	}
}

// StaleIndex builds an index of the project at root and then rewrites
// it so that its trusted entry for rel names the chunks of other: bytes
// of the file's size that the file does not hold. TestStaleIndexFailsUpload
// (upload_test.go) uploads through it.
func StaleIndex(t *testing.T, root, rel string, other []byte) *DirIndex {
	t.Helper()
	idx, _, entries := builtIndex(t, logOpens(os.DirFS(root)))
	e, ok := entries[rel]
	if !ok || e.key.size != int64(len(other)) {
		t.Fatalf("fixture: no index entry for %s of %d bytes", rel, len(other))
	}
	e.refs = chunkFile(rel, other).Chunks
	entries[rel] = e
	if err := os.WriteFile(idx.path, encodeIndex(time.Now().Add(time.Hour).UnixNano(), entries), 0o600); err != nil {
		t.Fatal(err)
	}
	return idx
}

// TestConcurrentBuildsOfOneProject: two scans of one project at once,
// each with its own DirIndex on the same file, both build the full
// scan's manifest; the last rename wins and leaves a whole index and no
// temp file. Run under -race.
func TestConcurrentBuildsOfOneProject(t *testing.T) {
	root, cacheDir := t.TempDir(), t.TempDir()
	files, dirs := edgeTree()
	writeTree(t, root, files, dirs...)
	want, _, err := Build(os.DirFS(root), nil)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(cacheDir, "index")
	for round := 0; round < 3; round++ {
		settle(t, cacheDir)
		var wg sync.WaitGroup
		for i := 0; i < 2; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				m, _, err := Build(os.DirFS(root), &DirIndex{path: path})
				if err != nil || !bytes.Equal(m.Encode(), want.Encode()) {
					t.Errorf("concurrent build: %v", err)
				}
			}()
		}
		wg.Wait()
	}
	data, err := os.ReadFile(path)
	if err != nil || decodeIndex(data) == nil {
		t.Fatalf("index after concurrent builds: %v", err)
	}
	if left, _ := filepath.Glob(filepath.Join(cacheDir, "*")); len(left) != 1 {
		t.Errorf("cache dir holds %v, want the index alone", left)
	}
}

// FuzzDirIndex: whatever bytes sit in the index file, Build neither
// panics nor fails, and builds the manifest a scan with no index builds.
// Bytes the fuzzer makes up cannot carry a valid checksum, so to
// Build they are an empty index. Each input is also tried sealed with
// a valid checksum, which takes it into the decoder's body: a checksummed
// index is believed by design, so there only the absence of a panic or
// an error is checked.
func FuzzDirIndex(f *testing.F) {
	root, cacheDir := f.TempDir(), f.TempDir()
	files, dirs := edgeTree()
	writeTree(f, root, files, dirs...)
	want, _, err := Build(os.DirFS(root), nil)
	if err != nil {
		f.Fatal(err)
	}
	path := filepath.Join(cacheDir, "index")
	build := func(t testing.TB, index []byte) *Manifest {
		if err := os.WriteFile(path, index, 0o600); err != nil {
			t.Fatal(err)
		}
		m, _, err := Build(os.DirFS(root), &DirIndex{path: path})
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	build(f, nil)
	valid, err := os.ReadFile(path)
	if err != nil {
		f.Fatal(err)
	}
	body := valid[:len(valid)-sha256.Size]
	f.Add(valid)
	f.Add(body)
	f.Add(valid[:len(valid)-1])
	f.Add(body[:len(body)-1])
	f.Add(valid[:len(indexMagic)+3])
	f.Add([]byte(indexMagic))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		if m := build(t, data); !bytes.Equal(m.Encode(), want.Encode()) {
			t.Fatal("manifest built through the index differs from a full scan")
		}
		build(t, sealIndex(bytes.Clone(data)))
	})
}
