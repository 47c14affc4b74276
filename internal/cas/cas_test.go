package cas

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"rai/internal/vfs"
)

var ctx = context.Background()

// fetchFunc serves a bulk read from a per-chunk lookup (a Source's Chunk
// method, or a stub), reusing one buffer across calls the way a network
// Fetcher does, so a materializer that keeps a slice past its call is
// caught by the content checks.
type fetchFunc func(hash string) ([]byte, error)

func (f fetchFunc) GetChunks(_ context.Context, hashes []string, each func(string, []byte) error) error {
	buf := make([]byte, 0, MaxChunk)
	for _, h := range hashes {
		data, err := f(h)
		if err != nil {
			return err
		}
		buf = append(buf[:0], data...)
		if err := each(h, buf); err != nil {
			return err
		}
	}
	return nil
}

// deterministic pseudo-random payload; the seed fixes the bytes across
// runs so chunk boundaries (and this test) are stable.
func randBytes(seed int64, n int) []byte {
	r := rand.New(rand.NewSource(seed))
	out := make([]byte, n)
	r.Read(out)
	return out
}

func TestSplitReassembles(t *testing.T) {
	for _, n := range []int{0, 1, MinChunk - 1, MinChunk, AvgChunk, MaxChunk, MaxChunk + 1, 1 << 20} {
		data := randBytes(int64(n), n)
		chunks := Split(data)
		var joined []byte
		for _, c := range chunks {
			if len(c) > MaxChunk {
				t.Errorf("n=%d: chunk of %d bytes exceeds MaxChunk", n, len(c))
			}
			joined = append(joined, c...)
		}
		if !bytes.Equal(joined, data) {
			t.Errorf("n=%d: concatenated chunks differ from input", n)
		}
		if n == 0 && len(chunks) != 0 {
			t.Errorf("empty input produced %d chunks", len(chunks))
		}
	}
}

func TestSplitDeterministicBoundaries(t *testing.T) {
	data := randBytes(7, 1<<20)
	a := Split(data)
	b := Split(data)
	if len(a) != len(b) {
		t.Fatalf("two splits of the same data: %d vs %d chunks", len(a), len(b))
	}
	for i := range a {
		if HashHex(a[i]) != HashHex(b[i]) {
			t.Fatalf("chunk %d differs between runs", i)
		}
	}
	// A megabyte of random bytes should land near the target average.
	if avg := len(data) / len(a); avg < AvgChunk/4 || avg > AvgChunk*4 {
		t.Errorf("average chunk size %d far from target %d", avg, AvgChunk)
	}
}

// TestEditLocality is the property delta resubmission rests on: a small
// edit in the middle of a file leaves all but a handful of chunks
// identical, so only those re-upload.
func TestEditLocality(t *testing.T) {
	orig := randBytes(11, 1<<20)
	edited := append([]byte(nil), orig...)
	copy(edited[512<<10:], []byte("a one-line edit lands here"))

	count := func(chunks [][]byte) map[string]bool {
		set := make(map[string]bool)
		for _, c := range chunks {
			set[HashHex(c)] = true
		}
		return set
	}
	before := count(Split(orig))
	changed := 0
	for h := range count(Split(edited)) {
		if !before[h] {
			changed++
		}
	}
	if changed > 4 {
		t.Errorf("one edit changed %d chunks of %d — boundaries not content-defined?", changed, len(before))
	}
}

func writeTree(t *testing.T, root string, files map[string]string, dirs ...string) {
	t.Helper()
	for _, d := range dirs {
		if err := os.MkdirAll(filepath.Join(root, filepath.FromSlash(d)), 0o755); err != nil {
			t.Fatal(err)
		}
	}
	for p, content := range files {
		full := filepath.Join(root, filepath.FromSlash(p))
		if err := os.MkdirAll(filepath.Dir(full), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(full, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// edgeTree is the satellite's edge-case fixture: empty dirs, 0-byte
// files, deep nesting, and names that need key-escaping.
func edgeTree() (map[string]string, []string) {
	files := map[string]string{
		"main.cu":                "int main() {}\n",
		"zero.bin":               "",
		"a/b/c/d/e/f/g/deep.txt": "bottom of the tree\n",
		"odd name %2F 100%.txt":  "percent and spaces\n",
		"src/kernel.cu":          strings.Repeat("__global__ void k();\n", 500),
		"src/data.raw":           string(randBytes(3, 3*AvgChunk)),
	}
	dirs := []string{"empty", "nested/also-empty"}
	return files, dirs
}

func TestManifestRoundTrip(t *testing.T) {
	root := t.TempDir()
	files, dirs := edgeTree()
	writeTree(t, root, files, dirs...)

	m, src, err := BuildDir(root)
	if err != nil {
		t.Fatal(err)
	}
	if m.TreeHash == "" || len(m.TreeHash) != 64 {
		t.Fatalf("tree hash = %q", m.TreeHash)
	}

	// Encode → Decode survives and validates.
	dec, err := Decode(m.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if dec.TreeHash != m.TreeHash {
		t.Fatalf("decoded tree hash %s != %s", dec.TreeHash, m.TreeHash)
	}

	// Materialize through the Source and compare every path exactly.
	dst := vfs.New()
	fetches, bytesFetched, err := Materialize(ctx, dec, fetchFunc(src.Chunk), dst, "/src")
	if err != nil {
		t.Fatal(err)
	}
	if fetches == 0 && len(files) > 0 {
		t.Error("materialize fetched nothing")
	}
	if bytesFetched != m.TotalBytes {
		// Every chunk is distinct in this fixture except dedup; fetched
		// bytes can be below TotalBytes but never above.
		if bytesFetched > m.TotalBytes {
			t.Errorf("fetched %d bytes > tree total %d", bytesFetched, m.TotalBytes)
		}
	}
	for p, want := range files {
		got, err := dst.ReadFile("/src/" + p)
		if err != nil {
			t.Errorf("%s: %v", p, err)
			continue
		}
		if string(got) != want {
			t.Errorf("%s: content mismatch (%d vs %d bytes)", p, len(got), len(want))
		}
	}
	for _, d := range dirs {
		fi, err := dst.Stat("/src/" + d)
		if err != nil || !fi.Dir {
			t.Errorf("empty dir %s not reproduced: %v", d, err)
		}
	}
}

func TestBuildVFSMatchesBuildDir(t *testing.T) {
	files, dirs := edgeTree()
	root := t.TempDir()
	writeTree(t, root, files, dirs...)
	// Same tree inside .git must be ignored by both builders.
	writeTree(t, root, map[string]string{".git/config": "[core]\n"})

	fsys := vfs.New()
	for _, d := range dirs {
		if err := fsys.MkdirAll("/src/" + d); err != nil {
			t.Fatal(err)
		}
	}
	if err := fsys.MkdirAll("/src/.git"); err != nil {
		t.Fatal(err)
	}
	if err := fsys.WriteFile("/src/.git/config", []byte("[core]\n")); err != nil {
		t.Fatal(err)
	}
	for p, content := range files {
		dir := "/src/" + p
		if i := strings.LastIndex(dir, "/"); i > 0 {
			if err := fsys.MkdirAll(dir[:i]); err != nil {
				t.Fatal(err)
			}
		}
		if err := fsys.WriteFile("/src/"+p, []byte(content)); err != nil {
			t.Fatal(err)
		}
	}

	md, _, err := BuildDir(root)
	if err != nil {
		t.Fatal(err)
	}
	mv, _, err := BuildVFS(fsys, "/src")
	if err != nil {
		t.Fatal(err)
	}
	if md.TreeHash != mv.TreeHash {
		t.Fatalf("host dir and vfs builds disagree:\n dir %s\n vfs %s", md.TreeHash, mv.TreeHash)
	}
	for _, f := range mv.Files {
		if strings.HasPrefix(f.Path, ".git/") {
			t.Errorf("VCS metadata %s leaked into manifest", f.Path)
		}
	}
}

// traversalHash passes a length check and is no hash: the server's mux
// cleans the URL ChunkKey builds from it into /o/rai-uploads/alice/j1/k.
var traversalHash = strings.Repeat("/.", 17) + "//../../rai-uploads/alice/j1/k"

func TestValidHash(t *testing.T) {
	if len(traversalHash) != 64 {
		t.Fatalf("fixture is %d characters, want the 64 a length check lets through", len(traversalHash))
	}
	for h, want := range map[string]bool{
		HashHex([]byte("x")):                true,
		strings.Repeat("0", 64):             true,
		strings.Repeat("f", 63):             false,
		strings.Repeat("f", 65):             false,
		strings.Repeat("F", 64):             false,
		strings.Repeat("g", 64):             false,
		strings.Repeat("a", 63) + "\n":      false,
		strings.Repeat("é", 32):             false,
		traversalHash:                       false,
		"":                                  false,
		strings.Repeat("a", 62) + "/" + "a": false,
		strings.Repeat("a", 32) + " " + strings.Repeat("a", 31): false,
	} {
		if got := ValidHash(h); got != want {
			t.Errorf("ValidHash(%q) = %v, want %v", h, got, want)
		}
	}
}

// hostileManifests are the shapes a student-written manifest can take to
// escape /src or make the worker allocate, fetch or write without
// bound. Each is otherwise well-formed — consistent sums, sealed tree
// hash — so only the check named by its key stands between it and the
// store. Shared by the table test and FuzzDecode's seed corpus.
func hostileManifests() (valid []byte, hostile map[string][]byte) {
	chunk := ChunkRef{Hash: HashHex([]byte("hi")), Size: 2}
	base := &Manifest{Files: []FileEntry{{Path: "ok.txt", Size: 2, Chunks: []ChunkRef{chunk}}}, TotalBytes: 2}
	base.Seal()

	mutate := func(f func(*Manifest)) []byte {
		m := Manifest{TotalBytes: base.TotalBytes, TreeHash: base.TreeHash}
		m.Dirs = append([]string(nil), base.Dirs...)
		for _, fe := range base.Files {
			fe.Chunks = append([]ChunkRef(nil), fe.Chunks...)
			m.Files = append(m.Files, fe)
		}
		f(&m)
		return m.Encode()
	}
	// repeated builds a sealed manifest of files×refs references to one
	// full-size chunk: every ref is valid on its own.
	repeated := func(files, refs int) []byte {
		big := ChunkRef{Hash: HashHex([]byte("one 64 KiB chunk")), Size: MaxChunk}
		m := &Manifest{}
		for i := 0; i < files; i++ {
			fe := FileEntry{Path: fmt.Sprintf("f%d", i), Size: int64(refs) * MaxChunk}
			for j := 0; j < refs; j++ {
				fe.Chunks = append(fe.Chunks, big)
			}
			m.Files = append(m.Files, fe)
			m.TotalBytes += fe.Size
		}
		m.Seal()
		return m.Encode()
	}
	return base.Encode(), map[string][]byte{
		"no magic":       []byte(`{"tree_hash":""}`),
		"tar.bz2 upload": []byte("BZh91AY&SY..."),
		"traversal file": mutate(func(m *Manifest) { m.Files[0].Path = "../escape"; m.Seal() }),
		"absolute file":  mutate(func(m *Manifest) { m.Files[0].Path = "/etc/passwd"; m.Seal() }),
		"traversal dir":  mutate(func(m *Manifest) { m.Dirs = []string{"a/../../b"}; m.Seal() }),
		"size mismatch":  mutate(func(m *Manifest) { m.Files[0].Size = 99; m.TreeHash = computeTreeHash(m) }),
		"bad tree hash":  mutate(func(m *Manifest) { m.TreeHash = strings.Repeat("0", 64) }),
		"bad chunk ref":  mutate(func(m *Manifest) { m.Files[0].Chunks[0].Hash = "short"; m.TreeHash = computeTreeHash(m) }),
		// 64 characters that ChunkKey would turn into a path out of the
		// chunk bucket and into another student's upload.
		"traversal chunk hash": mutate(func(m *Manifest) { m.Files[0].Chunks[0].Hash = traversalHash; m.Seal() }),
		"uppercase chunk hash": mutate(func(m *Manifest) {
			m.Files[0].Chunks[0].Hash = strings.ToUpper(m.Files[0].Chunks[0].Hash)
			m.Seal()
		}),
		"chunk over the chunker's max": mutate(func(m *Manifest) {
			m.Files[0].Chunks[0].Size = MaxChunk + 1
			m.Files[0].Size, m.TotalBytes = MaxChunk+1, MaxChunk+1
			m.Seal()
		}),
		"file over 256 MiB":           repeated(1, MaxFileBytes/MaxChunk+1),
		"one chunk 16k times (1 GiB)": repeated(1, 16<<10),
		"tree over 1 GiB":             repeated(5, MaxFileBytes/MaxChunk),
	}
}

// TestDecodeRejectsHostileManifests: every hostile shape is refused by
// Decode, and — for callers holding a *Manifest that never went through
// Decode — by Materialize before the first chunk fetch.
func TestDecodeRejectsHostileManifests(t *testing.T) {
	valid, hostile := hostileManifests()
	fetched := 0
	fetch := fetchFunc(func(string) ([]byte, error) { fetched++; return nil, errors.New("fetch must not run") })
	for name, enc := range hostile {
		if _, err := Decode(enc); err == nil {
			t.Errorf("%s: hostile manifest accepted", name)
		}
		var m Manifest
		if !bytes.HasPrefix(enc, []byte(Magic)) || json.Unmarshal(enc[len(Magic):], &m) != nil || name == "bad tree hash" {
			continue // not a manifest at all, or hostile only to the cache key
		}
		dst := vfs.New()
		if _, _, err := Materialize(ctx, &m, fetch, dst, "/src"); err == nil {
			t.Errorf("%s: hostile manifest materialized", name)
		}
		if dst.Exists("/src") {
			t.Errorf("%s: /src touched before the manifest was refused", name)
		}
	}
	if fetched != 0 {
		t.Errorf("%d chunk fetches ran for refused manifests", fetched)
	}
	if _, err := Decode(valid); err != nil {
		t.Errorf("well-formed manifest rejected: %v", err)
	}
}

// TestMaterializeChecksRepeatRefSize: a second ref to a cached chunk
// claiming a smaller size must not write the full chunk while being
// counted as one byte against the limits.
func TestMaterializeChecksRepeatRefSize(t *testing.T) {
	data := bytes.Repeat([]byte("x"), 4096)
	h := HashHex(data)
	m := &Manifest{Files: []FileEntry{{Path: "f", Size: 4097, Chunks: []ChunkRef{{Hash: h, Size: 4096}, {Hash: h, Size: 1}}}}, TotalBytes: 4097}
	m.Seal()
	_, _, err := Materialize(ctx, m, fetchFunc(func(string) ([]byte, error) { return data, nil }), vfs.New(), "/src")
	if err == nil || !strings.Contains(err.Error(), "ref says 1") {
		t.Fatalf("err = %v, want repeat-ref size mismatch", err)
	}
}

// streamTree is a manifest built by hand so the refs repeat the way the
// stream tests need: chunk a is used by both files and twice in the
// second, b and c once each, and an empty file sits between them.
func streamTree() (m *Manifest, payload map[string][]byte, want map[string]string) {
	a, b, c := bytes.Repeat([]byte("a"), 3000), bytes.Repeat([]byte("b"), 5000), bytes.Repeat([]byte("c"), 70)
	ref := func(data []byte) ChunkRef { return ChunkRef{Hash: HashHex(data), Size: int64(len(data))} }
	m = &Manifest{
		Dirs: []string{"d"},
		Files: []FileEntry{
			{Path: "d/one", Size: 8000, Chunks: []ChunkRef{ref(a), ref(b)}},
			{Path: "empty"},
			{Path: "two", Size: 6070, Chunks: []ChunkRef{ref(a), ref(c), ref(a)}},
		},
		TotalBytes: 14070,
	}
	m.Seal()
	payload = map[string][]byte{HashHex(a): a, HashHex(b): b, HashHex(c): c}
	want = map[string]string{"d/one": string(a) + string(b), "empty": "", "two": string(a) + string(c) + string(a)}
	return m, payload, want
}

// frameScript is a Fetcher that plays a fixed sequence of frames, then
// fails with err (nil: ends as if complete).
type frameScript struct {
	frames [][2]string // hash, payload
	err    error
}

func (s frameScript) GetChunks(_ context.Context, _ []string, each func(string, []byte) error) error {
	buf := make([]byte, 0, MaxChunk)
	for _, f := range s.frames {
		buf = append(buf[:0], f[1]...)
		if err := each(f[0], buf); err != nil {
			return err
		}
	}
	return s.err
}

// TestMaterializeStream drives Materialize with the streams a bulk read
// can produce. A transfer that restarts from the first chunk after being
// cut lands every chunk once and the tree comes out byte-identical;
// anything else that is not the asked-for sequence is an error naming
// the chunk, and a failed stream never reports success.
func TestMaterializeStream(t *testing.T) {
	m, payload, want := streamTree()
	order := m.ChunkSet()
	frame := func(i int) [2]string { return [2]string{order[i], string(payload[order[i]])} }

	t.Run("restarted stream lands each chunk once", func(t *testing.T) {
		dst := vfs.New()
		replay := frameScript{frames: [][2]string{frame(0), frame(1), frame(0), frame(1), frame(2)}}
		fetches, n, err := Materialize(ctx, m, replay, dst, "/src")
		if err != nil {
			t.Fatal(err)
		}
		if fetches != 3 || n != 8070 {
			t.Errorf("fetched %d chunks, %d bytes; want 3 chunks, 8070 bytes", fetches, n)
		}
		for p, content := range want {
			if got, err := dst.ReadFile("/src/" + p); err != nil || string(got) != content {
				t.Errorf("%s: %d bytes, %v; want %d", p, len(got), err, len(content))
			}
		}
		if fi, err := dst.Stat("/src/d"); err != nil || !fi.Dir {
			t.Errorf("directory not made: %v", err)
		}
	})

	other := bytes.Repeat([]byte("z"), 3000)
	for name, tc := range map[string]struct {
		script frameScript
		want   string
	}{
		"chunk ahead of its turn":  {frameScript{frames: [][2]string{frame(1)}}, order[1] + " arrived out of order"},
		"chunk nobody asked for":   {frameScript{frames: [][2]string{{HashHex(other), string(other)}}}, "arrived out of order"},
		"payload of another chunk": {frameScript{frames: [][2]string{{order[0], string(other)}}}, order[0] + ": fetched 3000 bytes that hash differently"},
		"stream ends early":        {frameScript{frames: [][2]string{frame(0)}}, "ended after 1 of 3 chunks"},
		"transfer fails":           {frameScript{frames: [][2]string{frame(0), frame(1)}, err: errors.New("store went away")}, "store went away"},
	} {
		t.Run(name, func(t *testing.T) {
			_, _, err := Materialize(ctx, m, tc.script, vfs.New(), "/src")
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("err = %v, want one containing %q", err, tc.want)
			}
		})
	}
}

// FuzzDecode: arbitrary bytes never panic Decode, and anything it
// accepts is within the limits, survives an encode round trip, and can
// be handed to Materialize (whose fetches all fail here) safely.
func FuzzDecode(f *testing.F) {
	valid, hostile := hostileManifests()
	f.Add(valid)
	for _, enc := range hostile {
		if len(enc) < 1<<20 { // the repeated-chunk shapes are MBs of refs; their small cousins mutate faster
			f.Add(enc)
		}
	}
	f.Add([]byte(Magic + `{"files":[{"path":"f","size":65537,"chunks":[{"h":"` + strings.Repeat("a", 64) + `","s":65537}]}],"total_bytes":65537}`))
	f.Add([]byte(Magic + `{"files":[{"path":"f","size":-1}],"total_bytes":-1}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := Decode(data)
		if err != nil {
			return
		}
		var total int64
		for _, fe := range m.Files {
			if fe.Size < 0 || fe.Size > MaxFileBytes {
				t.Fatalf("accepted %s of %d bytes", fe.Path, fe.Size)
			}
			for _, c := range fe.Chunks {
				if c.Size <= 0 || c.Size > MaxChunk {
					t.Fatalf("accepted %d-byte chunk ref in %s", c.Size, fe.Path)
				}
			}
			total += fe.Size
		}
		if len(m.Files) > MaxFiles || total > MaxTreeBytes || total != m.TotalBytes {
			t.Fatalf("accepted %d files, %d bytes (declared %d)", len(m.Files), total, m.TotalBytes)
		}
		again, err := Decode(m.Encode())
		if err != nil || again.TreeHash != m.TreeHash {
			t.Fatalf("re-encoded manifest: %v", err)
		}
		fetch := fetchFunc(func(string) ([]byte, error) { return nil, errors.New("no store") })
		if _, _, err := Materialize(ctx, m, fetch, vfs.New(), "/src"); err == nil && len(m.ChunkSet()) > 0 {
			t.Fatal("materialized chunks no store served")
		}
	})
}

func TestChunkKeyFanout(t *testing.T) {
	h := HashHex([]byte("x"))
	key := ChunkKey(h)
	if !strings.HasPrefix(key, "sha256/"+h[:2]+"/") || !strings.HasSuffix(key, h) {
		t.Errorf("ChunkKey(%s) = %s", h, key)
	}
}

func TestSourceDetectsConcurrentEdit(t *testing.T) {
	root := t.TempDir()
	writeTree(t, root, map[string]string{"f.txt": "original content\n"})
	m, src, err := BuildDir(root)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(root, "f.txt"), []byte("changed under us!\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, h := range m.ChunkSet() {
		if _, err := src.Chunk(h); err == nil {
			t.Fatal("source served a chunk whose file changed after hashing")
		}
	}
}

func BenchmarkSplit(b *testing.B) {
	data := randBytes(1, 4<<20)
	b.SetBytes(int64(len(data)))
	for i := 0; i < b.N; i++ {
		if got := Split(data); len(got) == 0 {
			b.Fatal("no chunks")
		}
	}
}

func ExampleChunkKey() {
	fmt.Println(ChunkKey("ab" + strings.Repeat("0", 62)))
	// Output: sha256/ab/ab00000000000000000000000000000000000000000000000000000000000000
}
