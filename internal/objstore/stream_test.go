package objstore

import (
	"bytes"
	"errors"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"

	"rai/internal/cas"
	"rai/internal/netx"
	"rai/internal/telemetry"
)

// TestHTTPPutTooLargeAborts pins the 413 path: a body over the limit is
// rejected mid-stream, nothing partial becomes visible, and the store's
// byte accounting stays clean.
func TestHTTPPutTooLargeAborts(t *testing.T) {
	s := New()
	srv := httptest.NewServer(Handler(s, nil, WithMaxObjectBytes(64)))
	defer srv.Close()

	req, err := http.NewRequest(http.MethodPut, srv.URL+"/o/b/big", strings.NewReader(strings.Repeat("x", 200)))
	if err != nil {
		t.Fatal(err)
	}
	res, err := srv.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	res.Body.Close()
	if res.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("status = %d, want 413", res.StatusCode)
	}
	if _, err := s.Head(ctx, "b", "big"); err == nil {
		t.Error("partial object visible after 413")
	}
	if used := s.Used(); used != 0 {
		t.Errorf("used = %d after aborted upload, want 0", used)
	}

	// At the limit exactly is still accepted.
	req, err = http.NewRequest(http.MethodPut, srv.URL+"/o/b/fits", strings.NewReader(strings.Repeat("y", 64)))
	if err != nil {
		t.Fatal(err)
	}
	res, err = srv.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	res.Body.Close()
	if res.StatusCode != http.StatusCreated {
		t.Fatalf("status = %d, want 201", res.StatusCode)
	}
}

// TestHTTPStreamCounters pins that the streaming counters account the
// payload bytes in both directions.
func TestHTTPStreamCounters(t *testing.T) {
	reg := telemetry.NewRegistry()
	s := New()
	srv := httptest.NewServer(Handler(s, nil, WithTelemetry(reg)))
	defer srv.Close()
	c := NewClient(srv.URL)

	payload := bytes.Repeat([]byte("stream"), 100)
	if err := c.PutReader(ctx, "b", "k", bytes.NewReader(payload), int64(len(payload)), 0); err != nil {
		t.Fatal(err)
	}
	rc, size, err := c.GetReader(ctx, "b", "k")
	if err != nil {
		t.Fatal(err)
	}
	got, err := io.ReadAll(rc)
	rc.Close()
	if err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("get reader round trip: %d bytes, %v", len(got), err)
	}
	if size != int64(len(payload)) {
		t.Errorf("content length = %d, want %d", size, len(payload))
	}

	res, err := srv.Client().Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	snap, err := telemetry.ParseText(res.Body)
	if err != nil {
		t.Fatal(err)
	}
	want := float64(len(payload))
	if v, ok := snap.Value("rai_objstore_stream_bytes_total", telemetry.L("direction", "in")); !ok || v != want {
		t.Errorf("stream bytes in = %v,%v, want %v", v, ok, want)
	}
	if v, ok := snap.Value("rai_objstore_stream_bytes_total", telemetry.L("direction", "out")); !ok || v != want {
		t.Errorf("stream bytes out = %v,%v, want %v", v, ok, want)
	}
}

// TestClientPutReaderRewindsOnRetry drops the first two attempts at the
// transport; a seekable body must rewind and upload intact.
func TestClientPutReaderRewindsOnRetry(t *testing.T) {
	s := New()
	srv := httptest.NewServer(Handler(s, nil))
	defer srv.Close()
	ft := &netx.FlakyTransport{Fail: 2}
	c := NewClient(srv.URL, WithClientPolicy(retryPolicy()), WithClientTransport(ft))

	payload := []byte("seekable payload")
	if err := c.PutReader(ctx, "b", "k", bytes.NewReader(payload), int64(len(payload)), 0); err != nil {
		t.Fatal(err)
	}
	if ft.Attempts() != 3 {
		t.Errorf("attempts = %d, want 3", ft.Attempts())
	}
	got, err := s.Get(ctx, "b", "k")
	if err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("stored content = %q, %v", got, err)
	}
}

// TestClientPutReaderNonSeekableSingleAttempt pins that a one-shot body
// is never replayed: the client downgrades to a single attempt rather
// than retrying with a half-consumed reader.
func TestClientPutReaderNonSeekableSingleAttempt(t *testing.T) {
	s := New()
	srv := httptest.NewServer(Handler(s, nil))
	defer srv.Close()
	ft := &netx.FlakyTransport{Fail: 1}
	c := NewClient(srv.URL, WithClientPolicy(retryPolicy()), WithClientTransport(ft))

	// io.MultiReader hides the ReadSeeker, making the body one-shot.
	body := io.MultiReader(strings.NewReader("one-shot"))
	err := c.PutReader(ctx, "b", "k", body, 8, 0)
	if err == nil {
		t.Fatal("expected the single attempt to fail")
	}
	if ft.Attempts() != 1 {
		t.Errorf("attempts = %d, want 1 (non-seekable body must not retry)", ft.Attempts())
	}
}

// TestClientGetReaderStreams pins that the body stays readable after the
// call returns (the retry loop must not cancel its context) and that a
// missing object still maps to the sentinel.
func TestClientGetReaderStreams(t *testing.T) {
	s := New()
	srv := httptest.NewServer(Handler(s, nil))
	defer srv.Close()
	c := NewClient(srv.URL, WithClientPolicy(retryPolicy()))

	payload := bytes.Repeat([]byte("z"), 4096)
	if err := s.Put(ctx, "b", "k", payload, 0); err != nil {
		t.Fatal(err)
	}
	rc, size, err := c.GetReader(ctx, "b", "k")
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()
	if size != int64(len(payload)) {
		t.Errorf("size = %d, want %d", size, len(payload))
	}
	got, err := io.ReadAll(rc)
	if err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("streamed read: %d bytes, %v", len(got), err)
	}

	if _, _, err := c.GetReader(ctx, "b", "missing"); !errors.Is(err, ErrNoObject) {
		t.Errorf("missing object err = %v, want ErrNoObject", err)
	}
}

// patternReader yields a cheap deterministic byte stream without ever
// holding it; wrapped in io.LimitReader it stands in for an archive.
type patternReader struct{ off int64 }

func (p *patternReader) Read(b []byte) (int, error) {
	for i := range b {
		b[i] = byte(p.off * 31)
		p.off++
	}
	return len(b), nil
}

// TestHTTPStreamingMemoryFlat is the streaming layer's canary: an N-byte
// then a 2N-byte object go client → HTTP → disk backend → HTTP → client,
// and the bytes allocated along the way must not grow with the object.
// Whole-object buffering on either side (an io.ReadAll in a handler, a
// []byte staging area in a backend) costs at least N more on the second
// pass; real streaming costs a few copy buffers on both.
func TestHTTPStreamingMemoryFlat(t *testing.T) {
	const n = 8 << 20
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	srv := httptest.NewServer(Handler(s, nil))
	defer srv.Close()
	c := NewClient(srv.URL)

	roundTrip := func(key string, size int64) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if err := c.PutReader(ctx, "b", key, io.LimitReader(&patternReader{}, size), size, 0); err != nil {
			t.Fatal(err)
		}
		rc, _, err := c.GetReader(ctx, "b", key)
		if err != nil {
			t.Fatal(err)
		}
		got, err := io.Copy(io.Discard, rc)
		rc.Close()
		if err != nil || got != size {
			t.Fatalf("%s round trip: %d of %d bytes, %v", key, got, size, err)
		}
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	first := roundTrip("1x", n)
	second := roundTrip("2x", 2*n)
	if second > first+n/2 {
		t.Errorf("allocated %d bytes moving %d, %d moving %d: memory grows with the object", first, n, second, 2*n)
	}
}

// discardResponse is a ResponseWriter that keeps nothing, so driving a
// handler through it measures the handler and not a client.
type discardResponse struct {
	header http.Header
	code   int
	n      int64
}

func (d *discardResponse) Header() http.Header  { return d.header }
func (d *discardResponse) WriteHeader(code int) { d.code = code }
func (d *discardResponse) Write(p []byte) (int, error) {
	d.n += int64(len(p))
	return len(p), nil
}

// chunkStreams splits n seeded-random bytes with cut and returns the
// chunks' hashes, the /cas/chunks body that uploads them and the
// /cas/fetch body that asks for them back.
func chunkStreams(n int, cut func([]byte) [][]byte) (hashes []string, upload, fetch []byte) {
	blob := make([]byte, n)
	rand.New(rand.NewSource(408)).Read(blob)
	for _, c := range cut(blob) {
		h := cas.HashHex(c)
		hashes = append(hashes, h)
		upload = append(appendFrameHeader(upload, h, int64(len(c))), c...)
	}
	return hashes, upload, []byte(strings.Join(hashes, "\n"))
}

// allocatedBy reports the bytes the heap handed out while f ran.
func allocatedBy(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestCASHandlersAllocateOncePerStoredByte pins the two properties that
// keep raifs's footprint the size of what it stores, measured on the
// handlers alone (no client in the loop) over the memory backend:
//
//   - ingesting N bytes of chunks through /cas/chunks allocates each
//     payload once, at its final size; a staging buffer, a growing one,
//     or a copy at commit each cost another N;
//   - serving them back through /cas/fetch allocates per chunk, not per
//     byte — a handler that copies each chunk out of the store costs N.
//
// With chunks of a size the allocator hands out exactly, ingest is held
// to 1.1 × N. The chunker's own chunks (~9 KiB of random data) get
// 1.25 × N: the allocator rounds each up to its size class (8 % here)
// and a chunk's bookkeeping is ~0.8 KiB whatever its size.
func TestCASHandlersAllocateOncePerStoredByte(t *testing.T) {
	const n = 8 << 20
	for _, tc := range []struct {
		name        string
		cut         func([]byte) [][]byte
		ingestBound uint64
	}{
		{"max-size chunks", func(b []byte) (out [][]byte) {
			for ; len(b) > 0; b = b[cas.MaxChunk:] {
				out = append(out, b[:cas.MaxChunk])
			}
			return out
		}, n + n/10},
		{"chunker's chunks", cas.Split, n + n/4},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := New()
			h := Handler(s, nil)
			hashes, upload, fetch := chunkStreams(n, tc.cut)
			post := func(path string, body []byte) *discardResponse {
				w := &discardResponse{header: http.Header{}, code: http.StatusOK}
				h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
				if w.code != http.StatusOK {
					t.Fatalf("POST %s answered %d", path, w.code)
				}
				return w
			}
			ingest := allocatedBy(func() { post("/cas/chunks", upload) })
			if s.Used() != n {
				t.Fatalf("store holds %d bytes after ingesting %d", s.Used(), n)
			}
			if ingest > tc.ingestBound {
				t.Errorf("ingesting %d bytes in %d chunks allocated %d, over %d: a payload is allocated more than once", n, len(hashes), ingest, tc.ingestBound)
			}
			var served int64
			serve := allocatedBy(func() { served = post("/cas/fetch", fetch).n })
			if served < n {
				t.Fatalf("fetch served %d bytes of %d", served, n)
			}
			if serve > n/8 {
				t.Errorf("serving %d bytes in %d chunks allocated %d, over %d: the handler allocates per byte served", n, len(hashes), serve, n/8)
			}
			t.Logf("%d chunks: ingest allocated %.3f × N, serve %.3f × N", len(hashes), float64(ingest)/n, float64(serve)/n)
		})
	}
}
