package objstore

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"
	"time"

	"rai/internal/blobstore"
	"rai/internal/clock"
)

func TestDiskPersistenceAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	s, err := openDisk(dir)
	if err != nil {
		t.Fatal(err)
	}
	payload := bytes.Repeat([]byte("archive"), 100)
	if err := s.Put(ctx, "rai-uploads", "team1/j1/project.tar.bz2", payload, time.Hour); err != nil {
		t.Fatal(err)
	}
	info, err := s.Head(ctx, "rai-uploads", "team1/j1/project.tar.bz2")
	if err != nil {
		t.Fatal(err)
	}
	// Restart.
	s2, err := openDisk(dir)
	if err != nil {
		t.Fatal(err)
	}
	data, err := s2.Get(ctx, "rai-uploads", "team1/j1/project.tar.bz2")
	if err != nil {
		t.Fatal(err)
	}
	info2, err := s2.Head(ctx, "rai-uploads", "team1/j1/project.tar.bz2")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, payload) {
		t.Error("content changed across restart")
	}
	if info2.ETag != info.ETag || info2.TTL != time.Hour {
		t.Errorf("metadata = %+v, want %+v", info2, info)
	}
	if s2.Used() != int64(len(payload)) {
		t.Errorf("Used = %d", s2.Used())
	}
}

// TestDiskDeleteRemovesFiles: an object the sweep deletes leaves
// neither its data nor its metadata file behind.
func TestDiskDeleteRemovesFiles(t *testing.T) {
	dir := t.TempDir()
	vc := clock.NewVirtual(t0)
	s, err := openDisk(dir, blobstore.WithClock(vc))
	if err != nil {
		t.Fatal(err)
	}
	s.Put(ctx, "b", "nested/key.bin", []byte("x"), time.Hour)
	vc.Advance(2 * time.Hour)
	if n, err := s.Sweep(ctx); n != 1 || err != nil {
		t.Fatalf("Sweep = %d, %v", n, err)
	}
	s2, err := openDisk(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s2.Get(ctx, "b", "nested/key.bin"); !errors.Is(err, ErrNoObject) {
		t.Fatalf("deleted object resurrected: %v", err)
	}
	// No stray files remain.
	entries, _ := os.ReadDir(filepath.Join(dir, "b"))
	if len(entries) != 0 {
		t.Errorf("leftover files: %v", entries)
	}
}

func TestDiskSweepRemovesExpiredFiles(t *testing.T) {
	dir := t.TempDir()
	vc := clock.NewVirtual(time.Date(2016, 11, 1, 0, 0, 0, 0, time.UTC))
	s, err := openDisk(dir, blobstore.WithClock(vc))
	if err != nil {
		t.Fatal(err)
	}
	s.Put(ctx, "b", "short", []byte("1"), time.Hour)
	s.Put(ctx, "b", "long", []byte("2"), 100*time.Hour)
	vc.Advance(2 * time.Hour)
	if n, _ := s.Sweep(ctx); n != 1 {
		t.Fatalf("swept %d", n)
	}
	s2, err := openDisk(dir, blobstore.WithClock(vc))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s2.Get(ctx, "b", "short"); !errors.Is(err, ErrNoObject) {
		t.Error("expired object persisted")
	}
	if _, err := s2.Get(ctx, "b", "long"); err != nil {
		t.Errorf("live object lost: %v", err)
	}
}

func TestDiskKeyEscaping(t *testing.T) {
	dir := t.TempDir()
	s, err := openDisk(dir)
	if err != nil {
		t.Fatal(err)
	}
	// Keys with slashes and percent signs round-trip.
	key := "team%1/sub/dir/file%2F.tar.bz2"
	if err := s.Put(ctx, "b", key, []byte("v"), 0); err != nil {
		t.Fatal(err)
	}
	s2, err := openDisk(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got, err := s2.Get(ctx, "b", key); err != nil || string(got) != "v" {
		t.Fatalf("get after restart = %q, %v", got, err)
	}
	// The on-disk name contains no path separators beyond the bucket.
	entries, _ := os.ReadDir(filepath.Join(dir, "b"))
	for _, e := range entries {
		if e.IsDir() {
			t.Errorf("unexpected directory %q (traversal surface)", e.Name())
		}
	}
}

func TestOpenRejectsCorruptMetadata(t *testing.T) {
	dir := t.TempDir()
	os.MkdirAll(filepath.Join(dir, "b"), 0o755)
	os.WriteFile(filepath.Join(dir, "b", "obj"), []byte("data"), 0o600)
	// Missing .meta file.
	if _, err := openDisk(dir); err == nil {
		t.Fatal("object without metadata accepted")
	}
	os.WriteFile(filepath.Join(dir, "b", "obj.meta"), []byte("{not json"), 0o600)
	if _, err := openDisk(dir); err == nil {
		t.Fatal("corrupt metadata accepted")
	}
}

func TestOpenFreshDirectory(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "does-not-exist-yet")
	s, err := openDisk(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put(ctx, "b", "k", []byte("x"), 0); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, "b")); err != nil {
		t.Fatalf("bucket dir not created: %v", err)
	}
}

func TestNewStaysInMemory(t *testing.T) {
	s := New()
	s.Put(ctx, "b", "k", []byte("x"), 0)
	// Nothing written anywhere; just exercise the nil-diskDir paths.
	if got, err := s.Get(ctx, "b", "k"); err != nil || string(got) != "x" {
		t.Fatalf("get = %q, %v", got, err)
	}
}

// openDisk is raifs's -store-root store: a disk backend under dir,
// loading whatever a previous run left there.
func openDisk(dir string, opts ...blobstore.Option) (*Store, error) {
	be, err := blobstore.NewDisk(dir, opts...)
	if err != nil {
		return nil, err
	}
	return NewWithBackend(be), nil
}
