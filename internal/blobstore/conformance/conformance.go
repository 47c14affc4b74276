// Package conformance is the executable contract for blobstore
// backends: one suite of behavioural tests that every Backend
// implementation — memory, disk, and any future engine (the ROADMAP's
// indexed/content-addressed stores) — must pass identically, run under
// -race by the blobstore package tests. A new backend earns its way
// into raifs/raidb by passing this suite, not by code review alone.
package conformance

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"strings"
	"testing"
	"time"

	"rai/internal/blobstore"
	"rai/internal/clock"
)

// Suite runs the backend contract. New builds a fresh, empty backend
// for one subtest, honouring the supplied options (capacity, TTL) and
// wiring the returned virtual clock as its time source.
type Suite struct {
	New func(t *testing.T, opts ...blobstore.Option) (blobstore.Backend, *clock.Virtual)
	// CheckClean, optional, asserts the backend left no stray artifacts
	// (temp files, orphan sidecars) after aborted or failed writes.
	CheckClean func(t *testing.T, be blobstore.Backend)
}

// start is the virtual timeline origin for every subtest.
var start = time.Date(2016, 11, 1, 0, 0, 0, 0, time.UTC)

// The suite drives backends synchronously from tests; there is no
// caller context to inherit.
//
//lint:ignore ctxbg conformance subtests have no caller context; cancellation is exercised explicitly via WithCancel
var testCtx = context.Background()

// NewVirtual returns a clock positioned at the suite's timeline origin;
// factories use it so every backend ticks from the same instant.
func NewVirtual() *clock.Virtual { return clock.NewVirtual(start) }

func put(t *testing.T, be blobstore.Backend, bucket, key string, data []byte, ttl time.Duration) blobstore.Info {
	t.Helper()
	w, err := be.Create(testCtx, bucket, key, blobstore.PutOptions{TTL: ttl})
	if err != nil {
		t.Fatalf("Create(%s/%s): %v", bucket, key, err)
	}
	if _, err := w.Write(data); err != nil {
		t.Fatalf("Write(%s/%s): %v", bucket, key, err)
	}
	if err := w.Close(); err != nil {
		t.Fatalf("Close(%s/%s): %v", bucket, key, err)
	}
	return w.Info()
}

func get(t *testing.T, be blobstore.Backend, bucket, key string) []byte {
	t.Helper()
	rc, _, err := be.Open(testCtx, bucket, key)
	if err != nil {
		t.Fatalf("Open(%s/%s): %v", bucket, key, err)
	}
	defer rc.Close()
	data, err := io.ReadAll(rc)
	if err != nil {
		t.Fatalf("read %s/%s: %v", bucket, key, err)
	}
	return data
}

// Run executes every contract subtest against fresh backends.
func (s Suite) Run(t *testing.T) {
	ctx := testCtx

	t.Run("StreamingRoundTrip", func(t *testing.T) {
		be, _ := s.New(t)
		defer be.Close()
		// Write in many small chunks; a streaming backend must not care
		// about chunking, and the hash must cover the concatenation.
		w, err := be.Create(ctx, "b", "team1/j1/project.tar.bz2", blobstore.PutOptions{})
		if err != nil {
			t.Fatal(err)
		}
		var want bytes.Buffer
		for i := 0; i < 100; i++ {
			chunk := bytes.Repeat([]byte{byte(i)}, 1000)
			want.Write(chunk)
			if _, err := w.Write(chunk); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		info := w.Info()
		if info.Size != int64(want.Len()) {
			t.Errorf("Info().Size = %d, want %d", info.Size, want.Len())
		}
		if info.ETag == "" {
			t.Error("Info().ETag empty after commit")
		}
		got := get(t, be, "b", "team1/j1/project.tar.bz2")
		if !bytes.Equal(got, want.Bytes()) {
			t.Errorf("round-trip mismatch: got %d bytes, want %d", len(got), want.Len())
		}
		st, err := be.Stat(ctx, "b", "team1/j1/project.tar.bz2")
		if err != nil || st.ETag != info.ETag {
			t.Errorf("Stat = %+v, %v; want ETag %s", st, err, info.ETag)
		}
	})

	t.Run("NothingVisibleUntilClose", func(t *testing.T) {
		be, _ := s.New(t)
		defer be.Close()
		w, err := be.Create(ctx, "b", "k", blobstore.PutOptions{})
		if err != nil {
			t.Fatal(err)
		}
		_, _ = w.Write([]byte("partial"))
		if _, err := be.Stat(ctx, "b", "k"); !errors.Is(err, blobstore.ErrNotFound) && !errors.Is(err, blobstore.ErrNoBucket) {
			t.Errorf("uncommitted blob visible: %v", err)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		if _, err := be.Stat(ctx, "b", "k"); err != nil {
			t.Errorf("committed blob missing: %v", err)
		}
	})

	t.Run("AbortCleansUpPartialWrite", func(t *testing.T) {
		be, _ := s.New(t)
		defer be.Close()
		put(t, be, "b", "keep", []byte("keep"), 0)
		w, err := be.Create(ctx, "b", "torn", blobstore.PutOptions{})
		if err != nil {
			t.Fatal(err)
		}
		_, _ = w.Write(bytes.Repeat([]byte("x"), 10000))
		if err := w.Abort(); err != nil {
			t.Fatalf("Abort: %v", err)
		}
		if _, err := be.Stat(ctx, "b", "torn"); !errors.Is(err, blobstore.ErrNotFound) {
			t.Errorf("aborted blob visible: %v", err)
		}
		if used := be.Used(); used != 4 {
			t.Errorf("Used = %d after abort, want 4", used)
		}
		if s.CheckClean != nil {
			s.CheckClean(t, be)
		}
	})

	t.Run("AbortAfterOverwriteKeepsOriginal", func(t *testing.T) {
		be, _ := s.New(t)
		defer be.Close()
		put(t, be, "b", "k", []byte("v1"), 0)
		w, err := be.Create(ctx, "b", "k", blobstore.PutOptions{})
		if err != nil {
			t.Fatal(err)
		}
		_, _ = w.Write([]byte("v2-partial"))
		w.Abort()
		if got := get(t, be, "b", "k"); string(got) != "v1" {
			t.Errorf("original clobbered by aborted overwrite: %q", got)
		}
		if s.CheckClean != nil {
			s.CheckClean(t, be)
		}
	})

	t.Run("ExpectedETagGatesCommit", func(t *testing.T) {
		be, _ := s.New(t)
		defer be.Close()
		v1 := []byte("first version")
		etag := put(t, be, "b", "k", v1, 0).ETag
		// A stream that hashes differently commits nothing: the original
		// stays, and no partial write is left behind.
		w, err := be.Create(ctx, "b", "k", blobstore.PutOptions{ETag: etag})
		if err != nil {
			t.Fatal(err)
		}
		_, _ = w.Write([]byte("forged content"))
		if err := w.Close(); !errors.Is(err, blobstore.ErrETag) {
			t.Fatalf("Close of a mismatched stream = %v, want ErrETag", err)
		}
		if got := get(t, be, "b", "k"); !bytes.Equal(got, v1) {
			t.Errorf("mismatched write clobbered the original: %q", got)
		}
		if s.CheckClean != nil {
			s.CheckClean(t, be)
		}
		// The matching stream commits, whatever the size hint said.
		for _, hint := range []int64{0, int64(len(v1)), 1, 1 << 40, -1} {
			key := fmt.Sprintf("hint%d", hint)
			w, err := be.Create(ctx, "b", key, blobstore.PutOptions{ETag: etag, Size: hint})
			if err != nil {
				t.Fatal(err)
			}
			_, _ = w.Write(v1[:5])
			_, _ = w.Write(v1[5:])
			if err := w.Close(); err != nil {
				t.Fatalf("Close with size hint %d: %v", hint, err)
			}
			if got := get(t, be, "b", key); !bytes.Equal(got, v1) || w.Info().ETag != etag {
				t.Errorf("size hint %d: stored %q, etag %s", hint, got, w.Info().ETag)
			}
		}
	})

	t.Run("OverwriteIsCopyOnWrite", func(t *testing.T) {
		be, _ := s.New(t)
		defer be.Close()
		put(t, be, "b", "k", []byte("first version"), 0)
		rc, _, err := be.Open(ctx, "b", "k")
		if err != nil {
			t.Fatal(err)
		}
		defer rc.Close()
		put(t, be, "b", "k", []byte("second version, longer"), 0)
		// The reader opened before the overwrite still sees the content
		// it opened (immutable buffers in memory, held fd on disk).
		old, err := io.ReadAll(rc)
		if err != nil || string(old) != "first version" {
			t.Errorf("pre-overwrite reader = %q, %v; want %q", old, err, "first version")
		}
		if got := get(t, be, "b", "k"); string(got) != "second version, longer" {
			t.Errorf("post-overwrite read = %q", got)
		}
	})

	t.Run("RemoveDuringReadKeepsStream", func(t *testing.T) {
		be, _ := s.New(t)
		defer be.Close()
		payload := bytes.Repeat([]byte("stream"), 500)
		put(t, be, "b", "k", payload, 0)
		rc, _, err := be.Open(ctx, "b", "k")
		if err != nil {
			t.Fatal(err)
		}
		defer rc.Close()
		if err := be.Remove(ctx, "b", "k"); err != nil {
			t.Fatal(err)
		}
		got, err := io.ReadAll(rc)
		if err != nil || !bytes.Equal(got, payload) {
			t.Errorf("in-flight read after remove: %d bytes, %v", len(got), err)
		}
	})

	t.Run("TTLExpiryFromLastUse", func(t *testing.T) {
		be, vc := s.New(t)
		defer be.Close()
		put(t, be, "b", "k", []byte("v"), time.Hour)
		vc.Advance(30 * time.Minute)
		get(t, be, "b", "k") // refreshes last-use
		vc.Advance(45 * time.Minute)
		if _, err := be.Stat(ctx, "b", "k"); err != nil {
			t.Errorf("blob expired despite refresh: %v", err)
		}
		vc.Advance(2 * time.Hour)
		if _, err := be.Stat(ctx, "b", "k"); !errors.Is(err, blobstore.ErrNotFound) {
			t.Errorf("expired blob still visible: %v", err)
		}
		if used := be.Used(); used != 0 {
			t.Errorf("Used = %d after expiry", used)
		}
	})

	t.Run("TouchRefreshes", func(t *testing.T) {
		be, vc := s.New(t)
		defer be.Close()
		put(t, be, "b", "k", []byte("v"), time.Hour)
		vc.Advance(50 * time.Minute)
		if err := be.Touch(ctx, "b", "k"); err != nil {
			t.Fatal(err)
		}
		vc.Advance(50 * time.Minute)
		if _, err := be.Stat(ctx, "b", "k"); err != nil {
			t.Errorf("blob expired despite touch: %v", err)
		}
	})

	t.Run("DefaultTTLApplied", func(t *testing.T) {
		be, vc := s.New(t, blobstore.WithDefaultTTL(time.Hour))
		defer be.Close()
		info := put(t, be, "b", "k", []byte("v"), 0)
		if info.TTL != time.Hour {
			t.Errorf("TTL = %v, want default 1h", info.TTL)
		}
		vc.Advance(2 * time.Hour)
		if n, _ := be.Sweep(ctx); n != 1 {
			t.Errorf("Sweep = %d, want 1", n)
		}
	})

	t.Run("SweepCollectsExpired", func(t *testing.T) {
		be, vc := s.New(t)
		defer be.Close()
		put(t, be, "b", "short", []byte("1"), time.Hour)
		put(t, be, "b", "long", []byte("22"), 100*time.Hour)
		put(t, be, "b", "forever", []byte("333"), 0)
		vc.Advance(2 * time.Hour)
		if n, _ := be.Sweep(ctx); n != 1 {
			t.Errorf("Sweep = %d, want 1", n)
		}
		if used := be.Used(); used != 5 {
			t.Errorf("Used = %d after sweep, want 5", used)
		}
	})

	t.Run("ListPrefixSorted", func(t *testing.T) {
		be, _ := s.New(t)
		defer be.Close()
		for _, k := range []string{"t2/b", "t1/z", "t1/a", "other"} {
			put(t, be, "b", k, []byte(k), 0)
		}
		infos, err := be.List(ctx, "b", "t1/")
		if err != nil || len(infos) != 2 {
			t.Fatalf("List = %d infos, %v", len(infos), err)
		}
		if infos[0].Key != "t1/a" || infos[1].Key != "t1/z" {
			t.Errorf("List order = %s, %s", infos[0].Key, infos[1].Key)
		}
	})

	t.Run("CapacityEnforced", func(t *testing.T) {
		be, _ := s.New(t, blobstore.WithCapacity(100))
		defer be.Close()
		put(t, be, "b", "a", bytes.Repeat([]byte("x"), 60), 0)
		// A stream that would cross the cap fails mid-write or at commit
		// with ErrQuota, and leaves nothing visible.
		w, err := be.Create(ctx, "b", "big", blobstore.PutOptions{})
		if err != nil {
			t.Fatal(err)
		}
		var werr error
		for i := 0; i < 60 && werr == nil; i++ {
			_, werr = w.Write([]byte("y"))
		}
		if werr == nil {
			werr = w.Close()
		} else {
			w.Abort()
		}
		if !errors.Is(werr, blobstore.ErrQuota) {
			t.Errorf("over-capacity write error = %v, want ErrQuota", werr)
		}
		if _, err := be.Stat(ctx, "b", "big"); !errors.Is(err, blobstore.ErrNotFound) {
			t.Errorf("failed write visible: %v", err)
		}
		// Replacing an existing blob frees its old size first.
		put(t, be, "b", "a", bytes.Repeat([]byte("z"), 90), 0)
		if s.CheckClean != nil {
			s.CheckClean(t, be)
		}
	})

	t.Run("NameValidationAndErrors", func(t *testing.T) {
		be, _ := s.New(t)
		defer be.Close()
		for _, bad := range [][2]string{
			{"UPPER", "k"}, {"", "k"}, {"b", ""}, {"b", "/abs"}, {"b", "a//b"}, {"b", "a/../b"},
			{strings.Repeat("b", 64), "k"}, {"b", strings.Repeat("k", 513)},
		} {
			if _, err := be.Create(ctx, bad[0], bad[1], blobstore.PutOptions{}); !errors.Is(err, blobstore.ErrBadName) {
				t.Errorf("Create(%q/%q) = %v, want ErrBadName", bad[0], bad[1], err)
			}
		}
		if _, _, err := be.Open(ctx, "nope", "k"); !errors.Is(err, blobstore.ErrNoBucket) {
			t.Errorf("missing bucket = %v, want ErrNoBucket", err)
		}
		put(t, be, "b", "k", []byte("v"), 0)
		if _, _, err := be.Open(ctx, "b", "missing"); !errors.Is(err, blobstore.ErrNotFound) {
			t.Errorf("missing key = %v, want ErrNotFound", err)
		}
		if err := be.MakeBucket(ctx, "b2"); err != nil {
			t.Fatal(err)
		}
		if err := be.MakeBucket(ctx, "b2"); !errors.Is(err, blobstore.ErrExists) {
			t.Errorf("duplicate MakeBucket = %v, want ErrExists", err)
		}
		names, err := be.Buckets(ctx)
		if err != nil || len(names) != 2 || names[0] != "b" || names[1] != "b2" {
			t.Errorf("Buckets = %v, %v", names, err)
		}
	})

	t.Run("ContextCancellation", func(t *testing.T) {
		be, _ := s.New(t)
		defer be.Close()
		canceled, cancel := context.WithCancel(testCtx)
		cancel()
		if _, err := be.Create(canceled, "b", "k", blobstore.PutOptions{}); !errors.Is(err, context.Canceled) {
			t.Errorf("Create with canceled ctx = %v", err)
		}
		if _, _, err := be.Open(canceled, "b", "k"); !errors.Is(err, context.Canceled) {
			t.Errorf("Open with canceled ctx = %v", err)
		}
	})

	t.Run("AppendExtends", func(t *testing.T) {
		be, _ := s.New(t)
		defer be.Close()
		put(t, be, "b", "journal", []byte("line1\n"), 0)
		w, err := be.Append(ctx, "b", "journal")
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprint(w, "line2\n")
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		if got := get(t, be, "b", "journal"); string(got) != "line1\nline2\n" {
			t.Errorf("after append: %q", got)
		}
		st, _ := be.Stat(ctx, "b", "journal")
		if st.Size != 12 || st.ETag != "" {
			t.Errorf("append Stat = %+v, want size 12 and unknown ETag", st)
		}
		// Append to a missing key creates it.
		w2, err := be.Append(ctx, "b", "fresh")
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprint(w2, "first\n")
		w2.Close()
		if got := get(t, be, "b", "fresh"); string(got) != "first\n" {
			t.Errorf("append-created blob: %q", got)
		}
	})

	t.Run("ConcurrentMixedOps", func(t *testing.T) {
		be, _ := s.New(t)
		defer be.Close()
		// Hammer one backend from many goroutines; the -race run of this
		// subtest is the concurrency part of the contract.
		done := make(chan error, 8)
		for g := 0; g < 8; g++ {
			go func() {
				done <- func() error {
					for i := 0; i < 50; i++ {
						key := fmt.Sprintf("t%d/obj%d", g, i%10)
						payload := bytes.Repeat([]byte{byte(g)}, 100+i)
						w, err := be.Create(ctx, "b", key, blobstore.PutOptions{})
						if err != nil {
							return err
						}
						if _, err := w.Write(payload); err != nil {
							w.Abort()
							return err
						}
						if err := w.Close(); err != nil {
							return err
						}
						rc, _, err := be.Open(ctx, "b", key)
						if err != nil {
							return err
						}
						got, err := io.ReadAll(rc)
						rc.Close()
						if err != nil {
							return err
						}
						if len(got) == 0 {
							return fmt.Errorf("empty read for %s", key)
						}
						if _, err := be.List(ctx, "b", fmt.Sprintf("t%d/", g)); err != nil {
							return err
						}
					}
					return nil
				}()
			}()
		}
		for g := 0; g < 8; g++ {
			if err := <-done; err != nil {
				t.Error(err)
			}
		}
	})

	t.Run("SweepUnderConcurrentCreate", func(t *testing.T) {
		// Sweeping while writers stream must neither collect a blob that
		// is being (re)written nor corrupt the byte accounting: after the
		// dust settles, Used must equal the sum of surviving blob sizes.
		be, vc := s.New(t)
		defer be.Close()
		for i := 0; i < 20; i++ {
			put(t, be, "b", fmt.Sprintf("old/%02d", i), []byte("stale!"), time.Hour)
		}
		vc.Advance(2 * time.Hour) // every old/ blob is now expired
		done := make(chan error, 4)
		for g := 0; g < 4; g++ {
			go func() {
				done <- func() error {
					for i := 0; i < 25; i++ {
						key := fmt.Sprintf("new/%d-%02d", g, i)
						w, err := be.Create(testCtx, "b", key, blobstore.PutOptions{TTL: time.Hour})
						if err != nil {
							return err
						}
						if _, err := w.Write(bytes.Repeat([]byte("n"), 64)); err != nil {
							w.Abort()
							return err
						}
						if err := w.Close(); err != nil {
							return err
						}
					}
					return nil
				}()
			}()
		}
		swept := 0
		for i := 0; i < 10; i++ {
			n, err := be.Sweep(testCtx)
			if err != nil {
				t.Fatal(err)
			}
			swept += n
		}
		for g := 0; g < 4; g++ {
			if err := <-done; err != nil {
				t.Error(err)
			}
		}
		if n, err := be.Sweep(testCtx); err != nil {
			t.Fatal(err)
		} else {
			swept += n
		}
		if swept != 20 {
			t.Errorf("sweeps collected %d blobs, want exactly the 20 expired", swept)
		}
		infos, err := be.List(testCtx, "b", "")
		if err != nil {
			t.Fatal(err)
		}
		var total int64
		for _, info := range infos {
			if strings.HasPrefix(info.Key, "old/") {
				t.Errorf("expired blob %s survived sweep", info.Key)
			}
			total += info.Size
		}
		if len(infos) != 100 {
			t.Errorf("surviving blobs = %d, want 100", len(infos))
		}
		if used := be.Used(); used != total {
			t.Errorf("Used = %d, sum of listed sizes = %d", used, total)
		}
	})

	t.Run("TouchAtomicUnderConcurrentWrites", func(t *testing.T) {
		// Touch must read-and-refresh in one critical section: racing it
		// against overwrites of the same key must never resurrect stale
		// metadata (e.g. the pre-overwrite size) or lose the overwrite.
		be, _ := s.New(t)
		defer be.Close()
		put(t, be, "b", "k", bytes.Repeat([]byte("a"), 10), time.Hour)
		done := make(chan error, 2)
		go func() {
			done <- func() error {
				for i := 0; i < 100; i++ {
					size := 10 + i%7
					w, err := be.Create(testCtx, "b", "k", blobstore.PutOptions{TTL: time.Hour})
					if err != nil {
						return err
					}
					if _, err := w.Write(bytes.Repeat([]byte("b"), size)); err != nil {
						w.Abort()
						return err
					}
					if err := w.Close(); err != nil {
						return err
					}
				}
				return nil
			}()
		}()
		go func() {
			done <- func() error {
				for i := 0; i < 100; i++ {
					if err := be.Touch(testCtx, "b", "k"); err != nil {
						return err
					}
				}
				return nil
			}()
		}()
		for i := 0; i < 2; i++ {
			if err := <-done; err != nil {
				t.Error(err)
			}
		}
		st, err := be.Stat(testCtx, "b", "k")
		if err != nil {
			t.Fatal(err)
		}
		if st.Size != 10+99%7 {
			t.Errorf("final Size = %d, want the last overwrite's %d", st.Size, 10+99%7)
		}
		if used := be.Used(); used != st.Size {
			t.Errorf("Used = %d, want %d (single blob)", used, st.Size)
		}
	})
}
