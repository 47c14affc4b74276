package objstore

import (
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

// TestCASDeltaRoundTrip drives the whole protocol: first negotiation
// reports everything missing, the chunk upload lands them, and a second
// negotiation of the identical manifest transfers nothing.
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

	missing, err := c.MissingChunks(ctx, m.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if len(missing) != len(m.ChunkSet()) {
		t.Fatalf("fresh store missing %d of %d chunks", len(missing), len(m.ChunkSet()))
	}
	sent, err := c.PutChunks(ctx, missing, src)
	if err != nil {
		t.Fatal(err)
	}
	if sent != m.TotalBytes {
		t.Errorf("uploaded %d chunk bytes, tree is %d", sent, m.TotalBytes)
	}

	// Unchanged tree: nothing to transfer.
	again, err := c.MissingChunks(ctx, m.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if len(again) != 0 {
		t.Fatalf("second negotiation still missing %d chunks", len(again))
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
	missing, err := c.MissingChunks(ctx, m1.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.PutChunks(ctx, missing, src1); err != nil {
		t.Fatal(err)
	}

	m2, _ := buildTestTree(t, map[string]string{"stable.cu": big, "edited.cu": "v2 of the kernel\n"})
	delta, err := c.MissingChunks(ctx, m2.Encode())
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
// declared hash must never become addressable.
func TestCASRejectsHostileUploads(t *testing.T) {
	s := New()
	srv := httptest.NewServer(Handler(s, nil))
	defer srv.Close()

	lie := cas.HashHex([]byte("the real content"))
	frame := fmt.Sprintf("%s %d\n%s", lie, len("forged payload!!"), "forged payload!!")
	resp, err := http.Post(srv.URL+"/cas/chunks", "application/octet-stream", strings.NewReader(frame))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("forged chunk answered %d, want 400", resp.StatusCode)
	}
	if _, err := NewClient(srv.URL).Get(ctx, cas.Bucket, cas.ChunkKey(lie)); err == nil {
		t.Fatal("forged chunk became addressable")
	}

	// A manifest that fails validation is rejected at negotiation.
	resp2, err := http.Post(srv.URL+"/cas/negotiate", "application/octet-stream", strings.NewReader(cas.Magic+`{"tree_hash":"beef"}`))
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad manifest answered %d, want 400", resp2.StatusCode)
	}
}

// TestCASAuthGated: the delta endpoints honor the same AuthFunc as /o/.
func TestCASAuthGated(t *testing.T) {
	s := New()
	deny := func(accessKey, signature string, r *http.Request) bool { return false }
	srv := httptest.NewServer(Handler(s, deny))
	defer srv.Close()
	for _, path := range []string{"/cas/negotiate", "/cas/chunks", "/cas/fetch"} {
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

// TestCASChunksBoundsHeaderRead: a 64 MiB chunk stream with no newline
// is refused as a bad frame after reading at most a header's worth,
// without the handler allocating anything near the body.
func TestCASChunksBoundsHeaderRead(t *testing.T) {
	h := Handler(New(), nil)
	body := io.LimitReader(byteRun('a'), 64<<20)
	rec := httptest.NewRecorder()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/cas/chunks", body))
	runtime.ReadMemStats(&after)
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("answered %d, want 400: %s", rec.Code, rec.Body)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
		t.Fatalf("refusing the body allocated %d bytes", grew)
	}
}
