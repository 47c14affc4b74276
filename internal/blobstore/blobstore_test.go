package blobstore_test

import (
	"context"
	"errors"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"rai/internal/blobstore"
	"rai/internal/blobstore/conformance"
	"rai/internal/clock"
)

// The conformance suite is the real test body; each backend must pass
// it identically.

func memoryFactory(t *testing.T, opts ...blobstore.Option) (blobstore.Backend, *clock.Virtual) {
	t.Helper()
	vc := conformance.NewVirtual()
	return blobstore.NewMemory(append(opts, blobstore.WithClock(vc))...), vc
}

func TestMemoryConformance(t *testing.T) {
	conformance.Suite{New: memoryFactory}.Run(context.Background(), t)
}

func TestDiskConformance(t *testing.T) {
	var roots sync.Map // backend -> its data directory
	conformance.Suite{
		New: func(t *testing.T, opts ...blobstore.Option) (blobstore.Backend, *clock.Virtual) {
			t.Helper()
			vc := conformance.NewVirtual()
			root := t.TempDir()
			d, err := blobstore.NewDisk(root, append(opts, blobstore.WithClock(vc))...)
			if err != nil {
				t.Fatal(err)
			}
			roots.Store(d, root)
			return d, vc
		},
		CheckClean: func(t *testing.T, be blobstore.Backend) {
			t.Helper()
			root, _ := roots.Load(be)
			err := filepath.WalkDir(root.(string), func(path string, d os.DirEntry, err error) error {
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
	}.Run(context.Background(), t)
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

func TestBackendCloseThenErrClosed(t *testing.T) {
	mem := blobstore.NewMemory()
	mem.Close()
	if _, err := mem.Stat(context.Background(), "b", "k"); !errors.Is(err, blobstore.ErrClosed) {
		t.Errorf("Stat after Close = %v, want ErrClosed", err)
	}
}
