package archivex

import (
	"io/fs"
	"strings"
	"testing"

	"rai/internal/vfs"
)

// FuzzUnpackVFS: the grading downloader unpacks whatever object the file
// server hands it. Whatever the bytes, UnpackVFS does not panic, writes
// no more files or bytes than its limits allow, and creates nothing
// outside dest.
func FuzzUnpackVFS(f *testing.F) {
	packed, err := PackVFS(sampleProject(f), "/proj")
	if err != nil {
		f.Fatal(err)
	}
	f.Add(packed)
	for _, n := range []int{len(packed) - 1, len(packed) / 2, 64, 10} {
		f.Add(packed[:n])
	}
	f.Add(makeTarBz2(f, map[string]string{"ok": "x", "../escape": "boom"}))
	lim := Limits{MaxBytes: 8 << 10, MaxFiles: 8, MaxPerFile: 6 << 10}
	f.Fuzz(func(t *testing.T, data []byte) {
		out := vfs.New()
		_ = UnpackVFS(data, out, "/dest", lim)
		files, total := 0, int64(0)
		err := fs.WalkDir(out.IOFS("/"), ".", func(p string, d fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if p != "." && p != "dest" && !strings.HasPrefix(p, "dest/") {
				t.Errorf("created /%s outside /dest", p)
			}
			if !d.IsDir() {
				fi, err := d.Info()
				if err != nil {
					return err
				}
				files++
				total += fi.Size()
				if fi.Size() > lim.MaxPerFile {
					t.Errorf("/%s holds %d bytes, limit %d", p, fi.Size(), lim.MaxPerFile)
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if files > lim.MaxFiles || total > lim.MaxBytes {
			t.Errorf("wrote %d files, %d bytes; limits %d files, %d bytes", files, total, lim.MaxFiles, lim.MaxBytes)
		}
	})
}
