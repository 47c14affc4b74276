package archivex

import (
	"archive/tar"
	"bytes"
	"errors"
	"strings"
	"testing"

	"rai/internal/bzip2w"
	"rai/internal/vfs"
)

func sampleProject(t testing.TB) *vfs.FS {
	t.Helper()
	f := vfs.New()
	must := func(err error) {
		if err != nil {
			t.Fatal(err)
		}
	}
	must(f.WriteFile("/proj/rai-build.yml", []byte("rai:\n  version: 0.1\n")))
	must(f.WriteFile("/proj/src/main.cu", []byte("__global__ void k(){}\n")))
	must(f.WriteFile("/proj/src/util.h", bytes.Repeat([]byte("x"), 5000)))
	must(f.MkdirAll("/proj/empty"))
	return f
}

func TestPackUnpackVFSRoundTrip(t *testing.T) {
	f := sampleProject(t)
	data, err := PackVFS(f, "/proj")
	if err != nil {
		t.Fatal(err)
	}
	out := vfs.New()
	if err := UnpackVFS(data, out, "/dst", Limits{}); err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{"/dst/rai-build.yml", "/dst/src/main.cu", "/dst/src/util.h"} {
		want, _ := f.ReadFile("/proj" + strings.TrimPrefix(p, "/dst"))
		got, err := out.ReadFile(p)
		if err != nil {
			t.Fatalf("missing %s: %v", p, err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s content mismatch", p)
		}
	}
	if fi, err := out.Stat("/dst/empty"); err != nil || !fi.Dir {
		t.Errorf("empty dir not preserved: %v", err)
	}
}

func TestPackDeterministic(t *testing.T) {
	f := sampleProject(t)
	a, err := PackVFS(f, "/proj")
	if err != nil {
		t.Fatal(err)
	}
	b, err := PackVFS(f, "/proj")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Error("PackVFS is not deterministic for an unchanged tree")
	}
}

func TestUnpackRejectsTraversal(t *testing.T) {
	evil := []string{"../escape", "/abs/path", "a/../../b", "..", "a\\b"}
	for _, name := range evil {
		data := makeTarBz2(t, map[string]string{name: "boom"})
		out := vfs.New()
		err := UnpackVFS(data, out, "/dst", Limits{})
		if !errors.Is(err, ErrTraversal) && !errors.Is(err, ErrBadEntry) {
			t.Errorf("entry %q: err = %v, want traversal rejection", name, err)
		}
	}
}

func TestUnpackEnforcesLimits(t *testing.T) {
	big := makeTarBz2(t, map[string]string{"big.bin": strings.Repeat("A", 10_000)})
	out := vfs.New()
	if err := UnpackVFS(big, out, "/d", Limits{MaxBytes: 1000}); !errors.Is(err, ErrTooLarge) {
		t.Errorf("MaxBytes: %v", err)
	}
	if err := UnpackVFS(big, vfs.New(), "/d", Limits{MaxPerFile: 1000}); !errors.Is(err, ErrTooLarge) {
		t.Errorf("MaxPerFile: %v", err)
	}
	many := map[string]string{}
	for i := 0; i < 20; i++ {
		many["f"+strings.Repeat("x", i)] = "1"
	}
	if err := UnpackVFS(makeTarBz2(t, many), vfs.New(), "/d", Limits{MaxFiles: 5}); !errors.Is(err, ErrTooLarge) {
		t.Errorf("MaxFiles: %v", err)
	}
}

func TestUnpackRejectsSymlinks(t *testing.T) {
	var raw bytes.Buffer
	bz, _ := bzip2w.NewWriterLevel(&raw, 1)
	tw := tar.NewWriter(bz)
	if err := tw.WriteHeader(&tar.Header{Name: "link", Typeflag: tar.TypeSymlink, Linkname: "/etc/passwd"}); err != nil {
		t.Fatal(err)
	}
	tw.Close()
	bz.Close()
	err := UnpackVFS(raw.Bytes(), vfs.New(), "/d", Limits{})
	if !errors.Is(err, ErrBadEntry) {
		t.Errorf("symlink entry: %v", err)
	}
}

func TestCompressionActuallyShrinks(t *testing.T) {
	f := vfs.New()
	f.WriteFile("/p/big.txt", bytes.Repeat([]byte("the same line of source code\n"), 2000))
	data, err := PackVFS(f, "/p")
	if err != nil {
		t.Fatal(err)
	}
	if len(data) > 10_000 {
		t.Errorf("58kB of repetitive text compressed to %d bytes; expected far smaller", len(data))
	}
}

// makeTarBz2 builds an archive with the given name->content entries.
func makeTarBz2(t testing.TB, files map[string]string) []byte {
	t.Helper()
	var raw bytes.Buffer
	bz, err := bzip2w.NewWriterLevel(&raw, 1)
	if err != nil {
		t.Fatal(err)
	}
	tw := tar.NewWriter(bz)
	for name, content := range files {
		if err := tw.WriteHeader(&tar.Header{Name: name, Size: int64(len(content)), Mode: 0o644}); err != nil {
			t.Fatal(err)
		}
		if _, err := tw.Write([]byte(content)); err != nil {
			t.Fatal(err)
		}
	}
	if err := tw.Close(); err != nil {
		t.Fatal(err)
	}
	if err := bz.Close(); err != nil {
		t.Fatal(err)
	}
	return raw.Bytes()
}
