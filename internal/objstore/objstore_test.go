package objstore

import (
	"bytes"
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"rai/internal/blobstore"
	"rai/internal/cas"
	"rai/internal/clock"
)

var t0 = time.Date(2016, 11, 1, 0, 0, 0, 0, time.UTC)

func TestPutGetRoundTrip(t *testing.T) {
	s := New()
	if err := s.Put(ctx, "uploads", "team1/project.tar.bz2", []byte("archive-bytes"), 0); err != nil {
		t.Fatal(err)
	}
	info, err := s.Head(ctx, "uploads", "team1/project.tar.bz2")
	if err != nil || info.Size != 13 || info.ETag == "" {
		t.Fatalf("info = %+v, %v", info, err)
	}
	data, err := s.Get(ctx, "uploads", "team1/project.tar.bz2")
	if err != nil || string(data) != "archive-bytes" {
		t.Fatalf("get = %q, %v", data, err)
	}
}

func TestGetIsCopy(t *testing.T) {
	s := New()
	s.Put(ctx, "b", "k", []byte("abc"), 0)
	d1, _ := s.Get(ctx, "b", "k")
	d1[0] = 'X'
	d2, _ := s.Get(ctx, "b", "k")
	if string(d2) != "abc" {
		t.Error("Get aliased internal storage")
	}
}

func TestMissing(t *testing.T) {
	s := New()
	if _, err := s.Get(ctx, "none", "k"); !errors.Is(err, ErrNoBucket) {
		t.Errorf("missing bucket: %v", err)
	}
	s.Put(ctx, "b", "k", nil, 0)
	if _, err := s.Get(ctx, "b", "missing"); !errors.Is(err, ErrNoObject) {
		t.Errorf("missing key: %v", err)
	}
	if _, err := s.Head(ctx, "b", "missing"); !errors.Is(err, ErrNoObject) {
		t.Errorf("head missing: %v", err)
	}
}

func TestNameValidation(t *testing.T) {
	s := New()
	bad := [][2]string{
		{"UPPER", "k"}, {"", "k"}, {"ok..but/slash", "k"},
		{"b", ""}, {"b", "/abs"}, {"b", "a//b"}, {"b", "a/../b"}, {"b", ".."},
	}
	for _, bk := range bad {
		if err := s.Put(ctx, bk[0], bk[1], nil, 0); !errors.Is(err, ErrBadName) {
			t.Errorf("Put(%q,%q) = %v", bk[0], bk[1], err)
		}
	}
	if err := s.Put(ctx, "valid-bucket.1", "nested/path/file.tar.bz2", nil, 0); err != nil {
		t.Errorf("valid names rejected: %v", err)
	}
}

func TestTTLExpiryFromLastUse(t *testing.T) {
	vc := clock.NewVirtual(t0)
	s := New(WithClock(vc), WithDefaultTTL(30*24*time.Hour)) // 1 month
	s.Put(ctx, "uploads", "proj", []byte("data"), 0)

	// 20 days later a worker downloads it: last-use refreshes.
	vc.Advance(20 * 24 * time.Hour)
	if _, err := s.Get(ctx, "uploads", "proj"); err != nil {
		t.Fatal(err)
	}
	// 20 more days: only 20 days since last use, still alive.
	vc.Advance(20 * 24 * time.Hour)
	if _, err := s.Get(ctx, "uploads", "proj"); err != nil {
		t.Fatalf("object expired %v after last use, want 30-day lifetime", 20*24*time.Hour)
	}
	// 31 days of silence: gone.
	vc.Advance(31 * 24 * time.Hour)
	if _, err := s.Get(ctx, "uploads", "proj"); !errors.Is(err, ErrNoObject) {
		t.Fatalf("expired object still served: %v", err)
	}
}

func TestSweep(t *testing.T) {
	vc := clock.NewVirtual(t0)
	s := New(WithClock(vc))
	s.Put(ctx, "b", "short", []byte("1234"), time.Hour)
	s.Put(ctx, "b", "long", []byte("5678"), 100*time.Hour)
	s.Put(ctx, "b", "forever", []byte("90"), 0)
	vc.Advance(2 * time.Hour)
	if n, _ := s.Sweep(ctx); n != 1 {
		t.Fatalf("Sweep removed %d, want 1", n)
	}
	if got := s.Used(); got != 6 {
		t.Errorf("Used = %d, want 6", got)
	}
	if _, err := s.Get(ctx, "b", "forever"); err != nil {
		t.Error("no-TTL object expired")
	}
}

func TestCapacity(t *testing.T) {
	vc := clock.NewVirtual(t0)
	s := NewWithBackend(blobstore.NewMemory(blobstore.WithCapacity(10), blobstore.WithClock(vc)))
	if err := s.Put(ctx, "b", "a", make([]byte, 8), 0); err != nil {
		t.Fatal(err)
	}
	if err := s.Put(ctx, "b", "b", make([]byte, 3), 0); !errors.Is(err, ErrQuota) {
		t.Fatalf("over capacity: %v", err)
	}
	// Overwrite frees the old size first.
	if err := s.Put(ctx, "b", "a", make([]byte, 10), time.Hour); err != nil {
		t.Fatalf("replace within capacity: %v", err)
	}
	if s.Used() != 10 {
		t.Errorf("Used = %d", s.Used())
	}
	vc.Advance(2 * time.Hour)
	if n, err := s.Sweep(ctx); n != 1 || err != nil {
		t.Fatalf("Sweep = %d, %v", n, err)
	}
	if s.Used() != 0 {
		t.Errorf("Used after sweep = %d", s.Used())
	}
}

// TestTouch: a manifest that names a chunk the store holds refreshes its
// last use, so a chunk shared across submissions outlives the TTL clock
// of its first upload.
func TestTouch(t *testing.T) {
	vc := clock.NewVirtual(t0)
	s := New(WithClock(vc))
	data := []byte("chunk")
	hash := cas.HashHex(data)
	s.Put(ctx, cas.Bucket, cas.ChunkKey(hash), data, time.Hour)
	m := &cas.Manifest{Files: []cas.FileEntry{{Path: "a", Size: int64(len(data)), Chunks: []cas.ChunkRef{{Hash: hash, Size: int64(len(data))}}}}, TotalBytes: int64(len(data))}
	m.Seal()
	vc.Advance(50 * time.Minute)
	if missing, err := s.PutManifest(ctx, "uploads", "team/j1", m.Encode(), 0, nil, nil); err != nil || len(missing) != 0 {
		t.Fatalf("upload = %v, %v; want the chunk present", missing, err)
	}
	vc.Advance(50 * time.Minute)
	if _, err := s.Head(ctx, cas.Bucket, cas.ChunkKey(hash)); err != nil {
		t.Errorf("chunk named by a manifest expired early: %v", err)
	}
}

// --- HTTP layer ---

var ctx = context.Background()

func newHTTP(t *testing.T, auth AuthFunc) (*Store, *Client) {
	t.Helper()
	s := New()
	srv := httptest.NewServer(Handler(s, auth))
	t.Cleanup(srv.Close)
	return s, NewClient(srv.URL)
}

func TestHTTPRoundTrip(t *testing.T) {
	_, c := newHTTP(t, nil)
	payload := bytes.Repeat([]byte("tarball "), 100)
	if err := c.Put(ctx, "uploads", "team1/proj.tar.bz2", payload, time.Hour); err != nil {
		t.Fatal(err)
	}
	got, err := c.Get(ctx, "uploads", "team1/proj.tar.bz2")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Error("HTTP round trip mismatch")
	}
	if _, err := c.Get(ctx, "uploads", "team2/proj.tar.bz2"); !errors.Is(err, ErrNoObject) {
		t.Errorf("get of an absent object: %v", err)
	}
}

func TestHTTPTTLHeader(t *testing.T) {
	s := New(WithClock(clock.NewVirtual(t0)))
	srv := httptest.NewServer(Handler(s, nil))
	defer srv.Close()
	c := NewClient(srv.URL)
	if err := c.Put(ctx, "b", "k", []byte("x"), 90*time.Second); err != nil {
		t.Fatal(err)
	}
	info, err := s.Head(ctx, "b", "k")
	if err != nil || info.TTL != 90*time.Second {
		t.Fatalf("TTL = %v, %v", info.TTL, err)
	}
}

func TestHTTPAuthRejects(t *testing.T) {
	auth := func(accessKey, sig string, r *http.Request) bool { return accessKey == "good" }
	_, c := newHTTP(t, auth)
	if err := c.Put(ctx, "b", "k", nil, 0); err == nil {
		t.Fatal("unauthenticated put succeeded")
	}
	c.Sign = func(r *http.Request) { r.Header.Set(HeaderAccessKey, "good") }
	if err := c.Put(ctx, "b", "k", []byte("x"), 0); err != nil {
		t.Fatalf("authenticated put: %v", err)
	}
	if _, err := c.Get(ctx, "b", "k"); err != nil {
		t.Fatalf("authenticated get: %v", err)
	}
}

// TestHTTPBadRequests: malformed paths are refused, and a method or
// route the server does not serve (DELETE, the /l/ listing) is answered
// as any unknown one, even for an object that exists.
func TestHTTPBadRequests(t *testing.T) {
	_, c := newHTTP(t, nil)
	if err := c.Put(ctx, "b", "k", []byte("x"), 0); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		method, path string
		want         int
	}{
		{http.MethodGet, "/o/onlybucket", http.StatusBadRequest},
		{http.MethodPatch, "/o/b/k", http.StatusMethodNotAllowed},
		{http.MethodDelete, "/o/b/k", http.StatusMethodNotAllowed},
		{http.MethodGet, "/nope/b", http.StatusNotFound},
		{http.MethodGet, "/l/b", http.StatusNotFound},
	} {
		req, _ := http.NewRequest(tc.method, c.BaseURL+tc.path, nil)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != tc.want {
			t.Errorf("%s %s = %d, want %d", tc.method, tc.path, resp.StatusCode, tc.want)
		}
	}
	if got, err := c.Get(ctx, "b", "k"); err != nil || string(got) != "x" {
		t.Errorf("object after the refused requests = %q, %v", got, err)
	}
}

func TestHTTPHealthz(t *testing.T) {
	_, c := newHTTP(t, nil)
	resp, err := http.Get(c.BaseURL + "/healthz")
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %v %v", resp, err)
	}
	resp.Body.Close()
}
