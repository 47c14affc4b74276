package blobstore_test

import (
	"context"
	"errors"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"rai/internal/blobstore"
	"rai/internal/blobstore/conformance"
	"rai/internal/clock"
)

// The conformance suite is the real test body; each backend (and the
// mount table wrapping one) must pass it identically.

func memoryFactory(t *testing.T, opts ...blobstore.Option) (blobstore.Backend, *clock.Virtual) {
	t.Helper()
	vc := conformance.NewVirtual()
	return blobstore.NewMemory(append(opts, blobstore.WithClock(vc))...), vc
}

func TestMemoryConformance(t *testing.T) {
	conformance.Suite{New: memoryFactory}.Run(t)
}

func TestDiskConformance(t *testing.T) {
	conformance.Suite{
		New: func(t *testing.T, opts ...blobstore.Option) (blobstore.Backend, *clock.Virtual) {
			t.Helper()
			vc := conformance.NewVirtual()
			d, err := blobstore.NewDisk(t.TempDir(), append(opts, blobstore.WithClock(vc))...)
			if err != nil {
				t.Fatal(err)
			}
			return d, vc
		},
		CheckClean: func(t *testing.T, be blobstore.Backend) {
			t.Helper()
			root := be.(*blobstore.Disk).Root()
			err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
				if err != nil {
					return err
				}
				if !d.IsDir() && strings.HasPrefix(d.Name(), "%tmp-") {
					t.Errorf("stray temp file %s", path)
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
		},
	}.Run(t)
}

func TestTableConformance(t *testing.T) {
	// A table with a mount still has to behave like a plain backend for
	// buckets the suite touches (all routed to the default here).
	conformance.Suite{
		New: func(t *testing.T, opts ...blobstore.Option) (blobstore.Backend, *clock.Virtual) {
			t.Helper()
			vc := conformance.NewVirtual()
			withClock := append(opts, blobstore.WithClock(vc))
			tab := blobstore.NewTable(blobstore.NewMemory(withClock...))
			if err := tab.Mount("mounted-", blobstore.NewMemory(withClock...)); err != nil {
				t.Fatal(err)
			}
			return tab, vc
		},
	}.Run(t)
}

func TestDiskReloadIndexesWithoutData(t *testing.T) {
	dir := t.TempDir()
	d, err := blobstore.NewDisk(dir)
	if err != nil {
		t.Fatal(err)
	}
	w, err := d.Create(context.Background(), "b", "team/archive", blobstore.PutOptions{TTL: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	io.WriteString(w, "payload bytes")
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	want := w.Info()
	d.Close()

	d2, err := blobstore.NewDisk(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	got, err := d2.Stat(context.Background(), "b", "team/archive")
	if err != nil {
		t.Fatal(err)
	}
	if got.ETag != want.ETag || got.Size != want.Size || got.TTL != time.Hour {
		t.Errorf("reloaded info = %+v, want %+v", got, want)
	}
	rc, _, err := d2.Open(context.Background(), "b", "team/archive")
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()
	data, _ := io.ReadAll(rc)
	if string(data) != "payload bytes" {
		t.Errorf("reloaded content = %q", data)
	}
}

func TestDiskReloadCleansTempFiles(t *testing.T) {
	dir := t.TempDir()
	os.MkdirAll(filepath.Join(dir, "b"), 0o755)
	os.WriteFile(filepath.Join(dir, "b", "%tmp-12345"), []byte("torn write"), 0o600)
	d, err := blobstore.NewDisk(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if _, err := os.Stat(filepath.Join(dir, "b", "%tmp-12345")); !errors.Is(err, os.ErrNotExist) {
		t.Error("crashed writer's temp file survived reload")
	}
	if used := d.Used(); used != 0 {
		t.Errorf("Used = %d, temp file counted", used)
	}
}

func TestDiskRejectsMissingOrCorruptMeta(t *testing.T) {
	dir := t.TempDir()
	os.MkdirAll(filepath.Join(dir, "b"), 0o755)
	os.WriteFile(filepath.Join(dir, "b", "obj"), []byte("data"), 0o600)
	if _, err := blobstore.NewDisk(dir); err == nil {
		t.Fatal("blob without metadata accepted")
	}
	os.WriteFile(filepath.Join(dir, "b", "obj.meta"), []byte("{not json"), 0o600)
	if _, err := blobstore.NewDisk(dir); err == nil {
		t.Fatal("corrupt metadata accepted")
	}
}

func TestDiskAdoptMigratesFlatFile(t *testing.T) {
	dir := t.TempDir()
	legacy := filepath.Join(dir, "rai.journal")
	os.WriteFile(legacy, []byte("line1\nline2\n"), 0o600)
	d, err := blobstore.NewDisk(filepath.Join(dir, "store"))
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	info, err := d.Adopt(context.Background(), "journal", "rai.journal", legacy)
	if err != nil {
		t.Fatal(err)
	}
	if info.Size != 12 {
		t.Errorf("adopted size = %d", info.Size)
	}
	if _, err := os.Stat(legacy); !errors.Is(err, os.ErrNotExist) {
		t.Error("legacy file still present after adoption")
	}
	rc, _, err := d.Open(context.Background(), "journal", "rai.journal")
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()
	data, _ := io.ReadAll(rc)
	if string(data) != "line1\nline2\n" {
		t.Errorf("adopted content = %q", data)
	}
	// The adopted blob survives a reload like any native one.
	d.Close()
	d2, err := blobstore.NewDisk(filepath.Join(dir, "store"))
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	if _, err := d2.Stat(context.Background(), "journal", "rai.journal"); err != nil {
		t.Errorf("adopted blob lost on reload: %v", err)
	}
}

func TestMountRoutingLongestPrefixWins(t *testing.T) {
	def := blobstore.NewMemory()
	cold := blobstore.NewMemory()
	colder := blobstore.NewMemory()
	tab := blobstore.NewTable(def)
	if err := tab.Mount("cold-", cold); err != nil {
		t.Fatal(err)
	}
	if err := tab.Mount("cold-deep-", colder); err != nil {
		t.Fatal(err)
	}
	if err := tab.Mount("cold-", cold); !errors.Is(err, blobstore.ErrExists) {
		t.Errorf("duplicate mount = %v, want ErrExists", err)
	}

	ctx := context.Background()
	writeTo := func(bucket string) {
		w, err := tab.Create(ctx, bucket, "k", blobstore.PutOptions{})
		if err != nil {
			t.Fatal(err)
		}
		io.WriteString(w, bucket)
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
	}
	writeTo("hot")
	writeTo("cold-a")
	writeTo("cold-deep-b")

	// Each blob landed on exactly the backend its prefix routes to.
	for _, tc := range []struct {
		be     blobstore.Backend
		bucket string
	}{{def, "hot"}, {cold, "cold-a"}, {colder, "cold-deep-b"}} {
		if _, err := tc.be.Stat(ctx, tc.bucket, "k"); err != nil {
			t.Errorf("bucket %q missing from its routed backend: %v", tc.bucket, err)
		}
	}
	if _, err := cold.Stat(ctx, "cold-deep-b", "k"); !errors.Is(err, blobstore.ErrNoBucket) {
		t.Error("longest-prefix mount did not win over shorter one")
	}

	// Reads route the same way, and the union view sees everything.
	rc, _, err := tab.Open(ctx, "cold-deep-b", "k")
	if err != nil {
		t.Fatal(err)
	}
	data, _ := io.ReadAll(rc)
	rc.Close()
	if string(data) != "cold-deep-b" {
		t.Errorf("routed read = %q", data)
	}
	names, err := tab.Buckets(ctx)
	if err != nil || len(names) != 3 {
		t.Errorf("union Buckets = %v, %v", names, err)
	}
	if used := tab.Used(); used != int64(len("hot")+len("cold-a")+len("cold-deep-b")) {
		t.Errorf("summed Used = %d, %v", used, err)
	}
}

func TestMountRoutingMixedBackends(t *testing.T) {
	mem := blobstore.NewMemory()
	disk, err := blobstore.NewDisk(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	tab := blobstore.NewTable(mem)
	if err := tab.Mount("durable-", disk); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	w, err := tab.Create(ctx, "durable-uploads", "team/a.tar.bz2", blobstore.PutOptions{})
	if err != nil {
		t.Fatal(err)
	}
	io.WriteString(w, "archive")
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	// The bytes are on disk, not in the memory backend.
	if _, err := os.Stat(filepath.Join(disk.Root(), "durable-uploads")); err != nil {
		t.Errorf("disk mount did not persist: %v", err)
	}
	if _, err := mem.Stat(ctx, "durable-uploads", "team/a.tar.bz2"); !errors.Is(err, blobstore.ErrNoBucket) {
		t.Error("default backend received routed write")
	}
}

func TestBackendCloseThenErrClosed(t *testing.T) {
	mem := blobstore.NewMemory()
	mem.Close()
	if _, err := mem.Stat(context.Background(), "b", "k"); !errors.Is(err, blobstore.ErrClosed) {
		t.Errorf("Stat after Close = %v, want ErrClosed", err)
	}
}
