package objstore

import (
	"bytes"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"

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
