package objstore

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"rai/internal/cas"
)

func buildTestTree(t *testing.T, files map[string]string) (*cas.Manifest, cas.Source) {
	t.Helper()
	root := t.TempDir()
	for p, content := range files {
		full := filepath.Join(root, filepath.FromSlash(p))
		if err := os.MkdirAll(filepath.Dir(full), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(full, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	m, src, err := cas.Build(os.DirFS(root), nil)
	if err != nil {
		t.Fatal(err)
	}
	return m, src
}

// TestCASDeltaRoundTrip drives the whole protocol: a manifest sent
// alone to an empty store is not committed and the reply lists every
// chunk; sent with those chunks it is committed; and the identical
// manifest sent alone again is committed at once.
func TestCASDeltaRoundTrip(t *testing.T) {
	s := New()
	srv := httptest.NewServer(Handler(s, nil))
	defer srv.Close()
	c := NewClient(srv.URL, WithClientPolicy(retryPolicy()))

	files := map[string]string{
		"main.cu":   strings.Repeat("__global__ void kernel();\n", 2000),
		"build.yml": "commands:\n  build: make\n",
	}
	m, src := buildTestTree(t, files)

	missing, err := c.PutManifest(ctx, "uploads", "team/j1", m.Encode(), 0, nil, src)
	if err != nil {
		t.Fatal(err)
	}
	if len(missing) != len(m.ChunkSet()) {
		t.Fatalf("fresh store missing %d of %d chunks", len(missing), len(m.ChunkSet()))
	}
	if _, err := c.Get(ctx, "uploads", "team/j1"); !errors.Is(err, ErrNoObject) {
		t.Fatalf("manifest committed with its chunks missing: %v", err)
	}
	if again, err := c.PutManifest(ctx, "uploads", "team/j1", m.Encode(), 0, missing, src); err != nil || len(again) != 0 {
		t.Fatalf("upload with the missing chunks = %v, %v", again, err)
	}
	if got, err := c.Get(ctx, "uploads", "team/j1"); err != nil || !bytes.Equal(got, m.Encode()) {
		t.Fatalf("committed manifest = %d bytes, %v", len(got), err)
	}

	// Unchanged tree: nothing to transfer.
	again, err := c.PutManifest(ctx, "uploads", "team/j2", m.Encode(), 0, nil, src)
	if err != nil || len(again) != 0 {
		t.Fatalf("second upload of the tree still missing %v, %v", again, err)
	}

	// Every chunk is readable back through the ordinary object API and
	// reassembles the tree byte-for-byte.
	fetched := 0
	for _, f := range m.Files {
		var joined []byte
		for _, ref := range f.Chunks {
			data, err := c.Get(ctx, cas.Bucket, cas.ChunkKey(ref.Hash))
			if err != nil {
				t.Fatalf("chunk %s: %v", ref.Hash, err)
			}
			joined = append(joined, data...)
			fetched++
		}
		if string(joined) != files[f.Path] {
			t.Errorf("%s: reassembled content differs", f.Path)
		}
	}
	if fetched == 0 {
		t.Fatal("no chunks fetched")
	}
}

// TestCASEditTransfersDelta pins the perf win: editing one file re-sends
// only that file's changed chunks, not the tree.
func TestCASEditTransfersDelta(t *testing.T) {
	s := New()
	srv := httptest.NewServer(Handler(s, nil))
	defer srv.Close()
	c := NewClient(srv.URL, WithClientPolicy(retryPolicy()))

	big := strings.Repeat("a line of device code that does not change\n", 8000)
	m1, src1 := buildTestTree(t, map[string]string{"stable.cu": big, "edited.cu": "v1 of the kernel\n"})
	if missing, err := c.PutManifest(ctx, "uploads", "team/j1", m1.Encode(), 0, m1.ChunkSet(), src1); err != nil || len(missing) != 0 {
		t.Fatalf("first upload = %v, %v", missing, err)
	}

	m2, _ := buildTestTree(t, map[string]string{"stable.cu": big, "edited.cu": "v2 of the kernel\n"})
	delta, err := c.PutManifest(ctx, "uploads", "team/j2", m2.Encode(), 0, nil, src1)
	if err != nil {
		t.Fatal(err)
	}
	var deltaBytes int64
	sizes := map[string]int64{}
	for _, f := range m2.Files {
		for _, ref := range f.Chunks {
			sizes[ref.Hash] = ref.Size
		}
	}
	for _, h := range delta {
		deltaBytes += sizes[h]
	}
	if deltaBytes == 0 || deltaBytes*10 > m2.TotalBytes {
		t.Errorf("one-file edit wants %d of %d bytes re-uploaded", deltaBytes, m2.TotalBytes)
	}
}

// TestCASRejectsHostileUploads: a chunk whose payload does not match its
// declared hash never becomes addressable, and a manifest is committed
// only when it decodes and every chunk it names is held — one that
// names a chunk neither present nor sent is not, and the reply lists it.
func TestCASRejectsHostileUploads(t *testing.T) {
	s := New()
	srv := httptest.NewServer(Handler(s, nil))
	defer srv.Close()
	post := func(body string) (*http.Response, string) {
		t.Helper()
		resp, err := http.Post(srv.URL+"/cas/manifest/uploads/team/j1", "application/octet-stream", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		reply, _ := io.ReadAll(resp.Body)
		return resp, string(reply)
	}
	manifestFrame := func(m *cas.Manifest) string {
		enc := m.Encode()
		return string(appendManifestHeader(nil, len(enc))) + string(enc)
	}
	present, absent := "a chunk the store holds", "a chunk nobody sent"
	m := &cas.Manifest{Files: []cas.FileEntry{
		{Path: "a", Size: int64(len(present)), Chunks: []cas.ChunkRef{{Hash: cas.HashHex([]byte(present)), Size: int64(len(present))}}},
		{Path: "b", Size: int64(len(absent)), Chunks: []cas.ChunkRef{{Hash: cas.HashHex([]byte(absent)), Size: int64(len(absent))}}},
	}, TotalBytes: int64(len(present) + len(absent))}
	m.Seal()

	lie := cas.HashHex([]byte("the real content"))
	forged := fmt.Sprintf("%s %d\n%s", lie, len("forged payload!!"), "forged payload!!")
	resp, _ := post(forged + manifestFrame(m))
	if resp.StatusCode != http.StatusBadRequest || resp.Header.Get(headerRefusedChunk) != lie {
		t.Fatalf("forged chunk answered %d naming %q, want 400 naming %s", resp.StatusCode, resp.Header.Get(headerRefusedChunk), lie)
	}
	if _, err := NewClient(srv.URL).Get(ctx, cas.Bucket, cas.ChunkKey(lie)); err == nil {
		t.Fatal("forged chunk became addressable")
	}

	// The manifest names one chunk that is sent and one that is neither
	// present nor sent: the sent one lands, the manifest does not.
	sent := fmt.Sprintf("%s %d\n%s", cas.HashHex([]byte(present)), len(present), present)
	resp, reply := post(sent + manifestFrame(m))
	if resp.StatusCode != http.StatusOK || !strings.Contains(reply, cas.HashHex([]byte(absent))) || strings.Contains(reply, cas.HashHex([]byte(present))) {
		t.Fatalf("manifest with a chunk neither present nor sent answered %d %q, want 200 listing only that chunk", resp.StatusCode, reply)
	}
	if _, err := s.Get(ctx, "uploads", "team/j1"); !errors.Is(err, ErrNoBucket) {
		t.Fatalf("manifest committed with a chunk missing: %v", err)
	}
	if _, err := s.Get(ctx, cas.Bucket, cas.ChunkKey(cas.HashHex([]byte(present)))); err != nil {
		t.Errorf("the chunk sent beside the incomplete manifest was not kept: %v", err)
	}

	// A manifest that fails validation, and a body without one, are
	// refused.
	bad := cas.Magic + `{"tree_hash":"beef"}`
	for name, body := range map[string]string{
		"bad manifest": string(appendManifestHeader(nil, len(bad))) + bad,
		"no manifest":  sent,
		"bytes after":  manifestFrame(m) + "x",
	} {
		if resp, reply := post(body); resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: answered %d %q, want 400", name, resp.StatusCode, reply)
		}
	}
	if _, err := s.Get(ctx, "uploads", "team/j1"); !errors.Is(err, ErrNoBucket) {
		t.Fatalf("a refused upload committed its manifest: %v", err)
	}
}

// TestCASAuthGated: the delta endpoints honor the same AuthFunc as /o/.
func TestCASAuthGated(t *testing.T) {
	s := New()
	deny := func(accessKey, signature string, r *http.Request) bool { return false }
	srv := httptest.NewServer(Handler(s, deny))
	defer srv.Close()
	for _, path := range []string{"/cas/manifest/uploads/team/j1", "/cas/fetch"} {
		resp, err := http.Post(srv.URL+path, "application/octet-stream", strings.NewReader("x"))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusForbidden {
			t.Errorf("%s answered %d without credentials, want 403", path, resp.StatusCode)
		}
	}
}

// byteRun reads as an endless run of one byte, so a test can post a
// large body without holding it.
type byteRun byte

func (b byteRun) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = byte(b)
	}
	return len(p), nil
}

// TestCASChunksBoundsHeaderRead: a 64 MiB upload with no newline is
// refused as a bad frame after reading at most a header's worth, without
// the handler allocating anything near the body.
func TestCASChunksBoundsHeaderRead(t *testing.T) {
	h := Handler(New(), nil)
	body := io.LimitReader(byteRun('a'), 64<<20)
	rec := httptest.NewRecorder()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/cas/manifest/uploads/team/j1", body))
	runtime.ReadMemStats(&after)
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("answered %d, want 400: %s", rec.Code, rec.Body)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
		t.Fatalf("refusing the body allocated %d bytes", grew)
	}
}
