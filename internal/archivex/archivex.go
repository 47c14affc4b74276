// Package archivex packs and unpacks the .tar.bz2 archives RAI moves
// between clients, the file server, and workers: the student's project
// directory on submission and the container's /build directory on
// completion.
//
// Compression uses internal/bzip2w (writing) and compress/bzip2
// (reading). Unpacking is hardened the way a grading pipeline must be:
// entry paths are validated against traversal, and byte/file-count limits
// bound decompression bombs.
package archivex

import (
	"archive/tar"
	"bytes"
	"compress/bzip2"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"path"
	"strings"

	"rai/internal/bzip2w"
	"rai/internal/cas"
	"rai/internal/vfs"
)

// Limits bounds unpacking. Zero fields mean "use the default".
type Limits struct {
	MaxBytes   int64 // total decompressed bytes (default 1 GiB)
	MaxFiles   int   // number of entries (default 100_000)
	MaxPerFile int64 // per-file bytes (default 256 MiB)
}

// Defaults for a student project tree — the limits the manifest
// transport enforces, declared once in cas.
const (
	defaultMaxBytes   = cas.MaxTreeBytes
	defaultMaxFiles   = cas.MaxFiles
	defaultMaxPerFile = cas.MaxFileBytes
)

func (l Limits) withDefaults() Limits {
	if l.MaxBytes == 0 {
		l.MaxBytes = defaultMaxBytes
	}
	if l.MaxFiles == 0 {
		l.MaxFiles = defaultMaxFiles
	}
	if l.MaxPerFile == 0 {
		l.MaxPerFile = defaultMaxPerFile
	}
	return l
}

// Errors reported by unpacking.
var (
	ErrTraversal = errors.New("archive entry escapes destination")
	ErrTooLarge  = errors.New("archive exceeds size limits")
	ErrBadEntry  = errors.New("unsupported archive entry")
)

// PackVFS produces a .tar.bz2 of the subtree at root inside f. Entry
// names are relative to root and sorted (fs.WalkDir order), so output is
// deterministic for a given tree. Thin adapter over PackVFSTo.
func PackVFS(f *vfs.FS, root string) ([]byte, error) {
	var buf bytes.Buffer
	if err := PackVFSTo(&buf, f, root); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// PackVFSTo streams a .tar.bz2 of the subtree at root inside f to w.
func PackVFSTo(w io.Writer, f *vfs.FS, root string) error {
	bz, err := bzip2w.NewWriterLevel(w, 6)
	if err != nil {
		return err
	}
	tw := tar.NewWriter(bz)
	tree := f.IOFS(root)
	err = fs.WalkDir(tree, ".", func(rel string, d fs.DirEntry, err error) error {
		if err != nil || rel == "." {
			return err // "." is the root itself
		}
		fi, err := d.Info()
		if err != nil {
			return err
		}
		if d.IsDir() {
			return tw.WriteHeader(&tar.Header{
				Name:     rel + "/",
				Typeflag: tar.TypeDir,
				Mode:     0o755,
				ModTime:  fi.ModTime(),
			})
		}
		data, err := fs.ReadFile(tree, rel)
		if err != nil {
			return err
		}
		if err := tw.WriteHeader(&tar.Header{
			Name:    rel,
			Mode:    0o644,
			Size:    int64(len(data)),
			ModTime: fi.ModTime(),
		}); err != nil {
			return err
		}
		_, err = tw.Write(data)
		return err
	})
	if err != nil {
		return err
	}
	if err := tw.Close(); err != nil {
		return err
	}
	return bz.Close()
}

// UnpackVFS extracts a .tar.bz2 into f under dest, enforcing limits.
// Thin adapter over UnpackVFSFrom.
func UnpackVFS(data []byte, f *vfs.FS, dest string, lim Limits) error {
	return UnpackVFSFrom(bytes.NewReader(data), f, dest, lim)
}

// UnpackVFSFrom extracts a .tar.bz2 streamed from r into f under dest,
// enforcing limits. Only one entry's content is held in memory at a
// time, so archives much larger than the heap budget unpack in flat
// memory (bounded by MaxPerFile plus the VFS contents themselves).
func UnpackVFSFrom(r io.Reader, f *vfs.FS, dest string, lim Limits) error {
	lim = lim.withDefaults()
	tr := tar.NewReader(bzip2.NewReader(r))
	var total int64
	files := 0
	for {
		hdr, err := tr.Next()
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return fmt.Errorf("archivex: reading tar: %w", err)
		}
		rel, err := safeRel(hdr.Name)
		if err != nil {
			return err
		}
		files++
		if files > lim.MaxFiles {
			return fmt.Errorf("%w: more than %d entries", ErrTooLarge, lim.MaxFiles)
		}
		switch hdr.Typeflag {
		case tar.TypeDir:
			if err := f.MkdirAll(path.Join(dest, rel)); err != nil {
				return err
			}
		case tar.TypeReg:
			if hdr.Size > lim.MaxPerFile {
				return fmt.Errorf("%w: entry %s is %d bytes", ErrTooLarge, rel, hdr.Size)
			}
			limited := io.LimitReader(tr, lim.MaxPerFile+1)
			content, err := io.ReadAll(limited)
			if err != nil {
				return err
			}
			if int64(len(content)) > lim.MaxPerFile {
				return fmt.Errorf("%w: entry %s larger than declared", ErrTooLarge, rel)
			}
			total += int64(len(content))
			if total > lim.MaxBytes {
				return fmt.Errorf("%w: total exceeds %d bytes", ErrTooLarge, lim.MaxBytes)
			}
			if err := f.WriteFile(path.Join(dest, rel), content); err != nil {
				return err
			}
		default:
			return fmt.Errorf("%w: %s (type %c)", ErrBadEntry, rel, hdr.Typeflag)
		}
	}
}

// safeRel validates an archive entry name and returns a clean relative
// path that cannot escape the destination.
func safeRel(name string) (string, error) {
	name = strings.TrimSuffix(name, "/")
	if name == "" {
		return "", fmt.Errorf("%w: empty entry name", ErrBadEntry)
	}
	if strings.HasPrefix(name, "/") || strings.Contains(name, "\\") {
		return "", fmt.Errorf("%w: %q", ErrTraversal, name)
	}
	cleaned := path.Clean(name)
	if cleaned == ".." || strings.HasPrefix(cleaned, "../") || cleaned == "." {
		return "", fmt.Errorf("%w: %q", ErrTraversal, name)
	}
	return cleaned, nil
}
