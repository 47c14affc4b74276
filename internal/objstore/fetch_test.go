package objstore

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"

	"rai/internal/blobstore"
	"rai/internal/cas"
	"rai/internal/netx"
	"rai/internal/telemetry"
	"rai/internal/vfs"
)

// seededTree is a multi-chunk tree in a store: size seeded-random bytes
// in one file (nothing dedups) plus a small second file.
func seededTree(t *testing.T, s *Store, size int) (*cas.Manifest, map[string]string) {
	t.Helper()
	blob := make([]byte, size)
	rand.New(rand.NewSource(408)).Read(blob)
	files := map[string]string{"data/blob.bin": string(blob), "rai-build.yml": "rai:\n  version: 0.1\n"}
	m, src := buildTestTree(t, files)
	if _, err := s.PutChunks(ctx, m.ChunkSet(), src); err != nil {
		t.Fatal(err)
	}
	return m, files
}

func assertTree(t *testing.T, dst *vfs.FS, root string, files map[string]string) {
	t.Helper()
	for p, want := range files {
		if got, err := dst.ReadFile(root + "/" + p); err != nil || string(got) != want {
			t.Errorf("%s: %d bytes, %v; want %d bytes", p, len(got), err, len(want))
		}
	}
}

// TestFetchSurvivesCutStream: two transfers in a row die part-way
// through the stream; the third completes. Each retry starts over from
// the first chunk, and the tree still materialises once — every chunk
// landed a single time — and byte-identical.
func TestFetchSurvivesCutStream(t *testing.T) {
	s := New()
	m, files := seededTree(t, s, 256<<10)
	reg := telemetry.NewRegistry()
	srv := httptest.NewServer(Handler(s, nil, WithTelemetry(reg)))
	defer srv.Close()
	ft := &netx.FlakyTransport{Fail: 2, CutAfter: 100 << 10}
	c := NewClient(srv.URL, WithClientPolicy(retryPolicy()), WithClientTransport(ft))

	dst := vfs.New()
	fetches, n, err := cas.Materialize(ctx, m, c, dst, "/src")
	if err != nil {
		t.Fatal(err)
	}
	if ft.Attempts() != 3 {
		t.Errorf("attempts = %d, want 3 (two cut, one whole)", ft.Attempts())
	}
	if fetches != len(m.ChunkSet()) || n != m.TotalBytes {
		t.Errorf("landed %d chunks, %d bytes; the tree has %d chunks, %d bytes", fetches, n, len(m.ChunkSet()), m.TotalBytes)
	}
	assertTree(t, dst, "/src", files)
	// One op on the books per request, and the payload bytes of all
	// three attempts on the stream counter.
	if got := reg.Counter("rai_objstore_requests_total", "", telemetry.L("op", "cas-fetch")).Value(); got != 3 {
		t.Errorf("cas-fetch requests counted = %v, want 3", got)
	}
	if out := reg.Counter("rai_objstore_stream_bytes_total", "", telemetry.L("direction", "out")).Value(); out < float64(m.TotalBytes) {
		t.Errorf("stream bytes out = %v, want at least the tree's %d", out, m.TotalBytes)
	}
}

// TestFetchRejectsBadFrames: a reply that is not the asked-for frames in
// the asked-for order ends the call at once — no retry can fix a server
// that answers wrongly — with an error naming the chunk that was due.
func TestFetchRejectsBadFrames(t *testing.T) {
	a, b := strings.Repeat("a", 3000), strings.Repeat("b", 4000)
	ha, hb := cas.HashHex([]byte(a)), cas.HashHex([]byte(b))
	frame := func(hash string, size int, payload string) string {
		return fmt.Sprintf("%s %d\n%s", hash, size, payload)
	}
	for name, tc := range map[string]struct {
		reply string
		due   string // the chunk the error must name
	}{
		"wrong hash":     {frame(cas.HashHex([]byte("other")), 3000, a), ha},
		"wrong order":    {frame(hb, 4000, b) + frame(ha, 3000, a), ha},
		"repeated frame": {frame(ha, 3000, a) + frame(ha, 3000, a), hb},
		"oversize":       {frame(ha, cas.MaxChunk+1, a), ha},
		"not a frame":    {"<html>proxy error</html>\n", ha},
		"endless header": {strings.Repeat("f", 3*cas.MaxChunk), ha},
		"short payload":  {frame(ha, 3000, a) + frame(hb, 4000, b[:1000]), hb},
		"missing frame":  {frame(ha, 3000, a), hb},
	} {
		t.Run(name, func(t *testing.T) {
			srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				_, _ = io.WriteString(w, tc.reply)
			}))
			defer srv.Close()
			ft := &netx.FlakyTransport{}
			c := NewClient(srv.URL, WithClientPolicy(retryPolicy()), WithClientTransport(ft))
			var seen []string
			err := c.GetChunks(ctx, []string{ha, hb}, func(hash string, data []byte) error {
				if cas.HashHex(data) != hash {
					t.Errorf("handed %d bytes under %s that hash differently", len(data), hash)
				}
				seen = append(seen, hash)
				return nil
			})
			if err == nil || !netx.IsPermanent(err) || !strings.Contains(err.Error(), tc.due) {
				t.Errorf("err = %v; want a permanent error naming %s", err, tc.due)
			}
			if ft.Attempts() != 1 {
				t.Errorf("attempts = %d, want 1", ft.Attempts())
			}
			if len(seen) > 1 || (len(seen) == 1 && seen[0] != ha) {
				t.Errorf("chunks handed over before the bad frame: %v", seen)
			}
		})
	}
}

// TestFetchEachErrorEndsTheCall: the consumer refusing a chunk is not
// the connection's fault either.
func TestFetchEachErrorEndsTheCall(t *testing.T) {
	s := New()
	m, _ := seededTree(t, s, 64<<10)
	srv := httptest.NewServer(Handler(s, nil))
	defer srv.Close()
	ft := &netx.FlakyTransport{}
	c := NewClient(srv.URL, WithClientPolicy(retryPolicy()), WithClientTransport(ft))
	refused := errors.New("chunk refused")
	calls := 0
	err := c.GetChunks(ctx, m.ChunkSet(), func(string, []byte) error { calls++; return refused })
	if !errors.Is(err, refused) || calls != 1 || ft.Attempts() != 1 {
		t.Errorf("err = %v after %d calls and %d attempts; want the refusal, once", err, calls, ft.Attempts())
	}
}

// sweepOnOpen is a backend under which one chunk expires at the worst
// moment: it is there when sizes are read and gone when it is opened.
type sweepOnOpen struct {
	blobstore.Backend
	victim string
	armed  atomic.Bool
}

func (b *sweepOnOpen) Open(ctx context.Context, bucket, key string) (io.ReadCloser, blobstore.Info, error) {
	if key == b.victim && b.armed.CompareAndSwap(true, false) {
		_ = b.Backend.Remove(ctx, bucket, key)
	}
	return b.Backend.Open(ctx, bucket, key)
}

// TestFetchChunkSweptMidStream: a chunk swept between the presence pass
// and its turn in the stream breaks that transfer (the headers are gone);
// the retry finds it missing before the first frame and the call ends
// with the store's not-found naming the chunk. Materialize reports the
// failure; it never claims a tree it could not finish.
func TestFetchChunkSweptMidStream(t *testing.T) {
	be := &sweepOnOpen{Backend: blobstore.NewMemory()}
	s := NewWithBackend(be)
	m, _ := seededTree(t, s, 128<<10)
	chunks := m.ChunkSet()
	victim := chunks[len(chunks)/2]
	be.victim = cas.ChunkKey(victim)
	be.armed.Store(true)

	srv := httptest.NewServer(Handler(s, nil))
	defer srv.Close()
	ft := &netx.FlakyTransport{}
	c := NewClient(srv.URL, WithClientPolicy(retryPolicy()), WithClientTransport(ft))
	fetches, _, err := cas.Materialize(ctx, m, c, vfs.New(), "/src")
	if !errors.Is(err, ErrNoObject) || !strings.Contains(err.Error(), victim) {
		t.Fatalf("err = %v; want ErrNoObject naming %s", err, victim)
	}
	if ft.Attempts() != 2 {
		t.Errorf("attempts = %d, want 2 (one broken mid-stream, one refused whole)", ft.Attempts())
	}
	if fetches >= len(chunks) {
		t.Errorf("%d of %d chunks landed from a stream missing one", fetches, len(chunks))
	}
}

// TestCASRejectsHostileHash: a "hash" is 64 lowercase hex digits or it
// goes nowhere near a key. The one here is 64 characters that ChunkKey
// and the server's path cleaning would turn into another student's
// upload object.
func TestCASRejectsHostileHash(t *testing.T) {
	s := New()
	const secret = "alice's unreleased kernel"
	if err := s.Put(ctx, "rai-uploads", "alice/j1/k", []byte(secret), 0); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(Handler(s, nil))
	defer srv.Close()
	c := NewClient(srv.URL, WithClientPolicy(retryPolicy()))
	hostile := strings.Repeat("/.", 17) + "//../../rai-uploads/alice/j1/k"
	if len(hostile) != 64 {
		t.Fatalf("fixture is %d characters", len(hostile))
	}

	post := func(path, body string) (int, string) {
		t.Helper()
		resp, err := http.Post(srv.URL+path, "application/octet-stream", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		reply, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(reply)
	}
	if code, reply := post("/cas/fetch", hostile); code != http.StatusBadRequest || strings.Contains(reply, secret) {
		t.Errorf("/cas/fetch of a hostile hash answered %d %q, want 400", code, reply)
	}
	if code, _ := post("/cas/fetch", ""); code != http.StatusBadRequest {
		t.Errorf("/cas/fetch of nothing answered %d, want 400", code)
	}
	if code, _ := post("/cas/chunks", fmt.Sprintf("%s %d\n%s", hostile, len(secret), secret)); code != http.StatusBadRequest {
		t.Errorf("/cas/chunks frame under a hostile hash answered %d, want 400", code)
	}
	for name, o := range map[string]objects{"Store": s, "Client": c} {
		err := o.GetChunks(ctx, []string{hostile}, func(_ string, data []byte) error {
			t.Errorf("%s: handed %q for a hostile hash", name, data)
			return nil
		})
		if err == nil {
			t.Errorf("%s: hostile hash fetched without error", name)
		}
	}
	if got, err := s.Get(ctx, "rai-uploads", "alice/j1/k"); err != nil || string(got) != secret {
		t.Errorf("victim object disturbed: %q, %v", got, err)
	}
}
