package objstore

import (
	"bytes"
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

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
	if err := s.Delete(ctx, "b", "missing"); !errors.Is(err, ErrNoObject) {
		t.Errorf("delete missing: %v", err)
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
	s := New(WithCapacity(10))
	if err := s.Put(ctx, "b", "a", make([]byte, 8), 0); err != nil {
		t.Fatal(err)
	}
	if err := s.Put(ctx, "b", "b", make([]byte, 3), 0); !errors.Is(err, ErrQuota) {
		t.Fatalf("over capacity: %v", err)
	}
	// Overwrite frees the old size first.
	if err := s.Put(ctx, "b", "a", make([]byte, 10), 0); err != nil {
		t.Fatalf("replace within capacity: %v", err)
	}
	if s.Used() != 10 {
		t.Errorf("Used = %d", s.Used())
	}
	s.Delete(ctx, "b", "a")
	if s.Used() != 0 {
		t.Errorf("Used after delete = %d", s.Used())
	}
}

func TestListPrefixSorted(t *testing.T) {
	s := New()
	for _, k := range []string{"teams/z/final", "teams/a/final", "teams/a/dev", "other/x"} {
		s.Put(ctx, "uploads", k, []byte("x"), 0)
	}
	infos, err := s.List(ctx, "uploads", "teams/")
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"teams/a/dev", "teams/a/final", "teams/z/final"}
	if len(infos) != len(want) {
		t.Fatalf("list = %+v", infos)
	}
	for i, w := range want {
		if infos[i].Key != w {
			t.Fatalf("list order = %+v", infos)
		}
	}
}

func TestCreateBucket(t *testing.T) {
	s := New()
	if err := s.CreateBucket(ctx, "uploads"); err != nil {
		t.Fatal(err)
	}
	if err := s.CreateBucket(ctx, "uploads"); !errors.Is(err, ErrKeyExists) {
		t.Errorf("duplicate bucket: %v", err)
	}
	if got, _ := s.Buckets(ctx); len(got) != 1 || got[0] != "uploads" {
		t.Errorf("Buckets = %v", got)
	}
}

func TestTouch(t *testing.T) {
	vc := clock.NewVirtual(t0)
	s := New(WithClock(vc))
	s.Put(ctx, "b", "k", []byte("x"), time.Hour)
	vc.Advance(50 * time.Minute)
	if err := s.Touch(ctx, "b", "k"); err != nil {
		t.Fatal(err)
	}
	vc.Advance(50 * time.Minute)
	if _, err := s.Head(ctx, "b", "k"); err != nil {
		t.Error("touched object expired early")
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
	infos, err := c.List(ctx, "uploads", "team1/")
	if err != nil || len(infos) != 1 || infos[0].Key != "team1/proj.tar.bz2" {
		t.Fatalf("List = %+v, %v", infos, err)
	}
	if err := c.Delete(ctx, "uploads", "team1/proj.tar.bz2"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Get(ctx, "uploads", "team1/proj.tar.bz2"); !errors.Is(err, ErrNoObject) {
		t.Errorf("get after delete: %v", err)
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
	if _, err := c.List(ctx, "b", ""); err != nil {
		t.Fatalf("authenticated list: %v", err)
	}
}

func TestHTTPBadRequests(t *testing.T) {
	_, c := newHTTP(t, nil)
	srvURL := c.BaseURL
	for _, u := range []string{srvURL + "/o/onlybucket", srvURL + "/l/a/b"} {
		resp, err := http.Get(u)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest && resp.StatusCode != http.StatusNotFound {
			t.Errorf("GET %s = %d", u, resp.StatusCode)
		}
	}
	// Unknown method.
	req, _ := http.NewRequest(http.MethodPatch, srvURL+"/o/b/k", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("PATCH = %d", resp.StatusCode)
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
