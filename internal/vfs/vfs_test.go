package vfs

import (
	"errors"
	"io"
	"io/fs"
	"testing"
	"testing/fstest"
	"testing/quick"
)

func TestWriteReadFile(t *testing.T) {
	f := New()
	if err := f.WriteFile("/src/main.cu", []byte("kernel")); err != nil {
		t.Fatal(err)
	}
	got, err := f.ReadFile("/src/main.cu")
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "kernel" {
		t.Errorf("read %q", got)
	}
	// Parents were auto-created.
	fi, err := f.Stat("/src")
	if err != nil || !fi.Dir {
		t.Fatalf("Stat(/src) = %+v, %v", fi, err)
	}
}

func TestReadFileIsCopy(t *testing.T) {
	f := New()
	f.WriteFile("/a", []byte("abc"))
	got, _ := f.ReadFile("/a")
	got[0] = 'X'
	again, _ := f.ReadFile("/a")
	if string(again) != "abc" {
		t.Error("ReadFile returned aliased storage")
	}
}

func TestWriteFileIsCopy(t *testing.T) {
	f := New()
	data := []byte("abc")
	f.WriteFile("/a", data)
	data[0] = 'X'
	got, _ := f.ReadFile("/a")
	if string(got) != "abc" {
		t.Error("WriteFile aliased caller storage")
	}
}

// TestWriteFilePartsSharesSegments: a file installed from segments reads
// back as their concatenation — through ReadFile, Stat, ReadDir, the
// quota and io/fs — without a copy of them being made.
func TestWriteFilePartsSharesSegments(t *testing.T) {
	f := NewWithQuota(16)
	seg := make([]byte, 3, 8)
	copy(seg, "abc")
	parts := make([][]byte, 2, 4)
	parts[0], parts[1] = seg, []byte("defg")
	if err := f.WriteFileParts("/d/f", parts); err != nil {
		t.Fatal(err)
	}
	if err := f.WriteFileParts("/d/g", [][]byte{seg, seg}); err != nil {
		t.Fatal(err)
	}
	if got, err := f.ReadFile("/d/f"); err != nil || string(got) != "abcdefg" {
		t.Fatalf("ReadFile = %q, %v", got, err)
	}
	if fi, err := f.Stat("/d/g"); err != nil || fi.Size != 6 || f.used != 13 {
		t.Fatalf("Stat = %+v, %v; Used = %d", fi, err, f.used)
	}
	if err := f.WriteFileParts("/d/h", [][]byte{[]byte("1234")}); !errors.Is(err, ErrQuota) {
		t.Fatalf("over-quota parts: %v", err)
	}
	if got, err := fs.ReadFile(f.IOFS("/d"), "f"); err != nil || string(got) != "abcdefg" {
		t.Fatalf("io/fs read across segments = %q, %v", got, err)
	}
	seg[0] = 'X' // breaks the contract on purpose: the file shares seg
	if got, _ := f.ReadFile("/d/g"); string(got) != "XbcXbc" {
		t.Fatalf("segments were copied: %q", got)
	}
}

func TestPathValidation(t *testing.T) {
	f := New()
	for _, p := range []string{"", "relative", "also/relative"} {
		if err := f.WriteFile(p, nil); err == nil {
			t.Errorf("WriteFile(%q) succeeded", p)
		}
	}
	// Dot segments are cleaned.
	f.WriteFile("/a/b/../c", []byte("x"))
	if !f.Exists("/a/c") {
		t.Error("path cleaning failed")
	}
}

func TestErrors(t *testing.T) {
	f := New()
	f.WriteFile("/file", []byte("x"))
	f.MkdirAll("/dir/sub")

	if _, err := f.ReadFile("/missing"); !errors.Is(err, ErrNotExist) {
		t.Errorf("read missing: %v", err)
	}
	if _, err := f.ReadFile("/dir"); !errors.Is(err, ErrIsDir) {
		t.Errorf("read dir: %v", err)
	}
	if err := f.WriteFile("/dir", nil); !errors.Is(err, ErrIsDir) {
		t.Errorf("write over dir: %v", err)
	}
	if err := f.WriteFile("/file/sub", nil); !errors.Is(err, ErrNotDir) {
		t.Errorf("write through file: %v", err)
	}
	if err := f.Remove("/dir"); !errors.Is(err, ErrNotEmpty) {
		t.Errorf("remove non-empty: %v", err)
	}
	if _, err := f.ReadDir("/file"); !errors.Is(err, ErrNotDir) {
		t.Errorf("readdir file: %v", err)
	}
}

func TestRemoveAll(t *testing.T) {
	f := New()
	f.WriteFile("/d/a", []byte("1"))
	f.WriteFile("/d/sub/b", []byte("22"))
	if err := f.RemoveAll("/d"); err != nil {
		t.Fatal(err)
	}
	if f.Exists("/d") {
		t.Error("subtree still present")
	}
	if got := f.used; got != 0 {
		t.Errorf("Used = %d after removing everything", got)
	}
	// RemoveAll of a missing path is a no-op.
	if err := f.RemoveAll("/missing"); err != nil {
		t.Errorf("RemoveAll(missing) = %v", err)
	}
}

func TestQuota(t *testing.T) {
	f := NewWithQuota(10)
	if err := f.WriteFile("/a", []byte("12345")); err != nil {
		t.Fatal(err)
	}
	if err := f.WriteFile("/b", []byte("123456")); !errors.Is(err, ErrQuota) {
		t.Fatalf("over-quota write: %v", err)
	}
	// Replacing a file frees its old bytes first.
	if err := f.WriteFile("/a", []byte("1234567890")); err != nil {
		t.Fatalf("replace within quota: %v", err)
	}
	if got := f.used; got != 10 {
		t.Errorf("Used = %d, want 10", got)
	}
}

func TestReadDirSorted(t *testing.T) {
	f := New()
	for _, name := range []string{"/d/zeta", "/d/alpha", "/d/mid"} {
		f.WriteFile(name, nil)
	}
	entries, err := f.ReadDir("/d")
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"alpha", "mid", "zeta"}
	for i, e := range entries {
		if e.Name != want[i] {
			t.Fatalf("entries = %v", entries)
		}
	}
}

func TestMountReadOnly(t *testing.T) {
	host := New()
	host.WriteFile("/projects/team1/main.cu", []byte("code"))
	ctr := New()
	ctr.MkdirAll("/build")
	if err := ctr.Mount("/src", host, "/projects/team1", true); err != nil {
		t.Fatal(err)
	}
	got, err := ctr.ReadFile("/src/main.cu")
	if err != nil || string(got) != "code" {
		t.Fatalf("read through mount: %q, %v", got, err)
	}
	if err := ctr.WriteFile("/src/hack", []byte("x")); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("write through ro mount: %v", err)
	}
	if err := ctr.RemoveAll("/src/main.cu"); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("remove through ro mount: %v", err)
	}
	// Host sees no changes.
	if !host.Exists("/projects/team1/main.cu") {
		t.Error("host file disappeared")
	}
}

func TestMountReadWrite(t *testing.T) {
	host := New()
	host.MkdirAll("/out")
	ctr := New()
	if err := ctr.Mount("/build", host, "/out", false); err != nil {
		t.Fatal(err)
	}
	if err := ctr.WriteFile("/build/result.txt", []byte("ok")); err != nil {
		t.Fatal(err)
	}
	got, err := host.ReadFile("/out/result.txt")
	if err != nil || string(got) != "ok" {
		t.Fatalf("host read-back: %q, %v", got, err)
	}
}

func TestMountErrors(t *testing.T) {
	a, b := New(), New()
	if err := a.Mount("/m", b, "/missing", false); err == nil {
		t.Error("mount of missing source succeeded")
	}
	b.MkdirAll("/ok")
	if err := a.Mount("/", b, "/ok", false); err == nil {
		t.Error("mount over / succeeded")
	}
	if err := a.Mount("/m", a, "/", false); err == nil {
		t.Error("self-mount succeeded")
	}
}

func TestRemoveMountPointDetaches(t *testing.T) {
	host, ctr := New(), New()
	host.WriteFile("/data/x", []byte("1"))
	ctr.Mount("/data", host, "/data", true)
	if err := ctr.RemoveAll("/data"); err != nil {
		t.Fatal(err)
	}
	if !host.Exists("/data/x") {
		t.Error("removing the mount point deleted mounted data")
	}
}

func TestWalkDeterministic(t *testing.T) {
	f := New()
	f.WriteFile("/a/b/c.txt", []byte("1"))
	f.WriteFile("/a/a.txt", []byte("22"))
	f.WriteFile("/z.txt", []byte("333"))
	var paths []string
	err := fs.WalkDir(f.IOFS("/"), ".", func(p string, _ fs.DirEntry, err error) error {
		paths = append(paths, p)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	want := []string{".", "a", "a/a.txt", "a/b", "a/b/c.txt", "z.txt"}
	if len(paths) != len(want) {
		t.Fatalf("walk = %v", paths)
	}
	for i := range want {
		if paths[i] != want[i] {
			t.Fatalf("walk = %v, want %v", paths, want)
		}
	}
}

func TestTreeSizeAndCopyTree(t *testing.T) {
	f := New()
	f.WriteFile("/p/a", make([]byte, 100))
	f.WriteFile("/p/q/b", make([]byte, 23))
	size, err := treeSize(f, "/p")
	if err != nil || size != 123 {
		t.Fatalf("treeSize = %d, %v", size, err)
	}
	dst := New()
	if err := CopyTree(dst, "/copy", f, "/p"); err != nil {
		t.Fatal(err)
	}
	size, _ = treeSize(dst, "/copy")
	if size != 123 {
		t.Errorf("copied treeSize = %d", size)
	}
	if got, _ := dst.ReadFile("/copy/q/b"); len(got) != 23 {
		t.Error("nested file not copied")
	}
}

func TestIOFSConformance(t *testing.T) {
	f := New()
	f.WriteFile("/tree/x.txt", []byte("hello"))
	f.WriteFile("/tree/sub/y.txt", []byte("world"))
	f.MkdirAll("/tree/empty")
	if err := fstest.TestFS(f.IOFS("/tree"), "x.txt", "sub/y.txt"); err != nil {
		t.Fatal(err)
	}
}

func TestIOFSReadFile(t *testing.T) {
	f := New()
	f.WriteFile("/a/b.txt", []byte("data"))
	got, err := fs.ReadFile(f.IOFS("/"), "a/b.txt")
	if err != nil || string(got) != "data" {
		t.Fatalf("fs.ReadFile = %q, %v", got, err)
	}
}

// dirReads counts the directory listings an io/fs walk asks of an IOFS
// view: every ReadDir, and every Open that lands on a directory (which
// lists it to serve ReadDir on the file).
type dirReads struct {
	ioFS
	n int
}

func (d *dirReads) Open(name string) (fs.File, error) {
	f, err := d.ioFS.Open(name)
	if _, ok := f.(*ioDir); ok {
		d.n++
	}
	return f, err
}

func (d *dirReads) ReadDir(name string) ([]fs.DirEntry, error) {
	d.n++
	return d.ioFS.ReadDir(name)
}

// TestIOFSWalkListsEachDirOnce: one fs.WalkDir over an IOFS tree lists
// each directory once; its root is stat'ed, not opened and listed.
func TestIOFSWalkListsEachDirOnce(t *testing.T) {
	f := New()
	f.WriteFile("/tree/x.txt", []byte("hello"))
	f.WriteFile("/tree/sub/y.txt", []byte("world"))
	f.MkdirAll("/tree/sub/empty")
	fsys := &dirReads{ioFS: f.IOFS("/tree").(ioFS)}
	dirs := 0
	err := fs.WalkDir(fsys, ".", func(_ string, d fs.DirEntry, err error) error {
		if err == nil && d.IsDir() {
			dirs++
		}
		return err
	})
	if err != nil || dirs != 3 || fsys.n != dirs {
		t.Fatalf("walk of %d directories listed %d times (%v), want once each", dirs, fsys.n, err)
	}
	if fi, err := fs.Stat(fsys, "sub"); err != nil || !fi.IsDir() || fsys.n != dirs {
		t.Errorf("fs.Stat of a directory = %v, %v after %d listings", fi, err, fsys.n-dirs)
	}
	if _, err := fs.Stat(fsys, "nope"); !errors.Is(err, fs.ErrNotExist) {
		t.Errorf("fs.Stat of an absent name = %v", err)
	}
}

// TestIOFSReadAtAcrossSegments: ReadAt on a file written as segments
// reads any range across them, and reports io.EOF for a short read.
func TestIOFSReadAtAcrossSegments(t *testing.T) {
	f := New()
	if err := f.WriteFileParts("/p", [][]byte{[]byte("abc"), []byte("de"), []byte("fghij")}); err != nil {
		t.Fatal(err)
	}
	file, err := f.IOFS("/").Open("p")
	if err != nil {
		t.Fatal(err)
	}
	ra := file.(io.ReaderAt)
	for _, c := range []struct {
		off, n int
		want   string
		eof    bool
	}{{0, 10, "abcdefghij", false}, {2, 4, "cdef", false}, {5, 5, "fghij", false}, {7, 5, "hij", true}, {10, 1, "", true}} {
		buf := make([]byte, c.n)
		n, err := ra.ReadAt(buf, int64(c.off))
		if string(buf[:n]) != c.want || (err == io.EOF) != c.eof || (err != nil && err != io.EOF) {
			t.Errorf("ReadAt(%d bytes at %d) = %q, %v", c.n, c.off, buf[:n], err)
		}
	}
}

// Property: Used() always equals the sum of file sizes, across any
// sequence of writes and removals.
func TestQuickUsedAccounting(t *testing.T) {
	type op struct {
		Path byte
		Size uint8
		Del  bool
	}
	f := func(ops []op) bool {
		fsys := New()
		for _, o := range ops {
			p := "/f" + string(rune('a'+o.Path%8))
			if o.Del {
				fsys.RemoveAll(p)
			} else {
				fsys.WriteFile(p, make([]byte, o.Size))
			}
		}
		want, _ := treeSize(fsys, "/")
		return fsys.used == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestConcurrentAccess(t *testing.T) {
	f := New()
	done := make(chan struct{})
	for g := 0; g < 8; g++ {
		go func(g int) {
			defer func() { done <- struct{}{} }()
			p := "/g" + string(rune('0'+g))
			for i := 0; i < 200; i++ {
				f.WriteFile(p, []byte{byte(i)})
				f.ReadFile(p)
				f.Stat(p)
				f.ReadDir("/")
			}
		}(g)
	}
	for g := 0; g < 8; g++ {
		<-done
	}
}

// treeSize totals the file bytes under root, crossing mounts.
func treeSize(f *FS, root string) (int64, error) {
	var total int64
	err := fs.WalkDir(f.IOFS(root), ".", func(_ string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		fi, err := d.Info()
		total += fi.Size()
		return err
	})
	return total, err
}
