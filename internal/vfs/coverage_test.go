package vfs

import (
	"errors"
	"io/fs"
	"testing"
)

// The Walk tests drive fs.WalkDir over IOFS, the one walk every caller
// of the package uses.

func TestWalkCallbackErrorStops(t *testing.T) {
	f := New()
	f.WriteFile("/a/1", nil)
	f.WriteFile("/a/2", nil)
	sentinel := errors.New("stop here")
	visits := 0
	err := fs.WalkDir(f.IOFS("/"), ".", func(p string, _ fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		visits++
		if p == "a/1" {
			return sentinel
		}
		return nil
	})
	if !errors.Is(err, sentinel) {
		t.Fatalf("walk err = %v", err)
	}
	if visits != 3 { // ".", "a", "a/1"
		t.Errorf("visits = %d", visits)
	}
}

func TestWalkMissingRoot(t *testing.T) {
	f := New()
	err := fs.WalkDir(f.IOFS("/missing"), ".", func(_ string, _ fs.DirEntry, err error) error { return err })
	if !errors.Is(err, ErrNotExist) {
		t.Fatalf("err = %v", err)
	}
}

func TestWalkSingleFileRoot(t *testing.T) {
	f := New()
	f.WriteFile("/file.txt", []byte("x"))
	var paths []string
	if err := fs.WalkDir(f.IOFS("/"), "file.txt", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		paths = append(paths, p)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(paths) != 1 || paths[0] != "file.txt" {
		t.Fatalf("paths = %v", paths)
	}
}

func TestMkdirAllThroughMount(t *testing.T) {
	host, ctr := New(), New()
	host.MkdirAll("/out")
	ctr.Mount("/build", host, "/out", false)
	if err := ctr.MkdirAll("/build/deep/tree"); err != nil {
		t.Fatal(err)
	}
	if !host.Exists("/out/deep/tree") {
		t.Error("mkdir did not propagate through the mount")
	}
	ro := New()
	ro.Mount("/data", host, "/out", true)
	if err := ro.MkdirAll("/data/evil"); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("ro mkdir: %v", err)
	}
}

func TestStatAndReadDirThroughMount(t *testing.T) {
	host, ctr := New(), New()
	host.WriteFile("/src/a.txt", []byte("abc"))
	ctr.Mount("/src", host, "/src", true)
	fi, err := ctr.Stat("/src/a.txt")
	if err != nil || fi.Size != 3 {
		t.Fatalf("stat = %+v, %v", fi, err)
	}
	entries, err := ctr.ReadDir("/src")
	if err != nil || len(entries) != 1 || entries[0].Name != "a.txt" {
		t.Fatalf("readdir = %v, %v", entries, err)
	}
	// Stat of the mount point itself resolves to the target dir.
	fi, err = ctr.Stat("/src")
	if err != nil || !fi.Dir {
		t.Fatalf("mountpoint stat = %+v, %v", fi, err)
	}
}

func TestRemoveRootRejected(t *testing.T) {
	f := New()
	if err := f.Remove("/"); err == nil {
		t.Error("Remove(/) accepted")
	}
	if err := f.RemoveAll("/"); err == nil {
		t.Error("RemoveAll(/) accepted")
	}
}

func TestCopyTreeSingleFile(t *testing.T) {
	src, dst := New(), New()
	src.WriteFile("/one.txt", []byte("1"))
	if err := CopyTree(dst, "/copied.txt", src, "/one.txt"); err != nil {
		t.Fatal(err)
	}
	got, _ := dst.ReadFile("/copied.txt")
	if string(got) != "1" {
		t.Fatalf("copied = %q", got)
	}
}

func TestTreeSizeAcrossMount(t *testing.T) {
	host, ctr := New(), New()
	host.WriteFile("/data/big.bin", make([]byte, 1000))
	ctr.Mount("/data", host, "/data", true)
	ctr.WriteFile("/local.txt", make([]byte, 24))
	size, err := treeSize(ctr, "/")
	if err != nil || size != 1024 {
		t.Fatalf("treeSize = %d, %v", size, err)
	}
}
