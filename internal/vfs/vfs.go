// Package vfs implements the in-memory filesystem used by the sandboxed
// container runtime. It supports directories, regular files, bind mounts
// of other FS subtrees (optionally read-only, the way a RAI worker mounts
// the student's /src), and a byte quota that stands in for the container
// disk limit.
//
// A regular file is a list of immutable byte segments. No byte of a
// segment is written once it is installed, so segments can be shared:
// WriteFileParts installs the caller's segments without copying them
// (the worker's /src is built this way from verified chunks that its
// chunk cache holds too), and any number of files, in any number of
// filesystems, may hold the same one. Writers pay instead of readers:
// WriteFile copies its buffer into a fresh segment and never writes
// into a segment already there. ReadFile
// still returns a fresh copy; Segments hands out the segments themselves,
// to a caller that writes none of them.
//
// Paths are absolute and slash-separated. The root ("/") always exists.
// An FS is safe for concurrent use. It also adapts to io/fs.FS for
// interoperability with standard-library tooling.
package vfs

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"path"
	"slices"
	"sort"
	"strings"
	"sync"
	"time"

	"rai/internal/clock"
)

// Errors reported by FS operations.
var (
	ErrNotExist   = fs.ErrNotExist
	ErrNotDir     = errors.New("not a directory")
	ErrIsDir      = errors.New("is a directory")
	ErrReadOnly   = errors.New("read-only file system")
	ErrQuota      = errors.New("disk quota exceeded")
	ErrNotEmpty   = errors.New("directory not empty")
	ErrBadPattern = errors.New("bad path")
)

// FS is an in-memory filesystem rooted at "/".
type FS struct {
	mu    sync.RWMutex
	root  *node
	quota int64 // 0 = unlimited
	used  int64
}

type node struct {
	name string
	dir  bool
	// parts is a regular file's contents, in order, and size their total
	// length. Neither a segment's bytes nor an element of parts is
	// written once in place: a write replaces the list.
	parts    [][]byte
	size     int64
	children map[string]*node
	modTime  time.Time
	// mount, when non-nil, redirects resolution into another FS.
	mount *mount
}

type mount struct {
	fs       *FS
	at       string // path inside fs
	readOnly bool
}

// New returns an empty filesystem with no quota.
func New() *FS {
	return &FS{
		root: &node{name: "/", dir: true, children: map[string]*node{}},
	}
}

// NewWithQuota returns an empty filesystem limited to quota bytes of file
// data (directories and metadata are free).
func NewWithQuota(quota int64) *FS {
	f := New()
	f.quota = quota
	return f
}

// clean canonicalizes p and validates that it is absolute.
func clean(p string) (string, error) {
	if p == "" || p[0] != '/' {
		return "", fmt.Errorf("%w: %q is not absolute", ErrBadPattern, p)
	}
	return path.Clean(p), nil
}

// resolveResult locates a node; when the walk crosses a mount the target
// FS and translated path are returned instead.
type resolveResult struct {
	fs       *FS // non-nil when redirected
	path     string
	readOnly bool
	node     *node // local node when not redirected
	parent   *node
	leaf     string
}

// resolve walks p in f. With mkParents, intermediate directories are
// created. The caller must hold f.mu (write lock if mkParents).
func (f *FS) resolve(p string, mkParents bool) (resolveResult, error) {
	p, err := clean(p)
	if err != nil {
		return resolveResult{}, err
	}
	if p == "/" {
		return resolveResult{node: f.root, parent: nil, leaf: "/"}, nil
	}
	// The walk takes one component of p at a time off rest, so it
	// allocates nothing of its own until it crosses a mount.
	cur, rest := f.root, p[1:]
	for {
		part, tail, more := strings.Cut(rest, "/")
		last := !more
		rest = tail
		child, ok := cur.children[part]
		if !ok {
			if !last {
				if !mkParents {
					return resolveResult{}, fmt.Errorf("%s: %w", p, ErrNotExist)
				}
				child = &node{name: part, dir: true, children: map[string]*node{}, modTime: clock.Real{}.Now()}
				cur.children[part] = child
			} else {
				return resolveResult{parent: cur, leaf: part}, nil
			}
		}
		if child.mount != nil {
			sub := child.mount.at
			if more {
				// Both halves are clean, so their join is too.
				sub = strings.TrimSuffix(sub, "/") + "/" + rest
			}
			return resolveResult{fs: child.mount.fs, path: sub, readOnly: child.mount.readOnly}, nil
		}
		if last {
			return resolveResult{node: child, parent: cur, leaf: part}, nil
		}
		if !child.dir {
			return resolveResult{}, fmt.Errorf("%s: %w", p, ErrNotDir)
		}
		cur = child
	}
}

// Mount binds src's subtree at srcPath onto dst at dstPath. The mount
// point replaces any existing node at dstPath. readOnly forbids writes
// through this mount.
func (f *FS) Mount(dstPath string, src *FS, srcPath string, readOnly bool) error {
	dstPath, err := clean(dstPath)
	if err != nil {
		return err
	}
	srcPath, err = clean(srcPath)
	if err != nil {
		return err
	}
	if dstPath == "/" {
		return fmt.Errorf("cannot mount over /")
	}
	if src == f {
		return fmt.Errorf("cannot self-mount")
	}
	// Verify source exists and is a directory.
	if fi, err := src.Stat(srcPath); err != nil {
		return fmt.Errorf("mount source: %w", err)
	} else if !fi.IsDir() {
		return fmt.Errorf("mount source %s: %w", srcPath, ErrNotDir)
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	dir, leaf := path.Split(dstPath)
	res, err := f.resolve(path.Clean(dir), true)
	if err != nil {
		return err
	}
	if res.fs != nil {
		return fmt.Errorf("cannot mount inside another mount at %s", dstPath)
	}
	parent := res.node
	if parent == nil || !parent.dir {
		return fmt.Errorf("%s: %w", dir, ErrNotDir)
	}
	parent.children[leaf] = &node{
		name:    leaf,
		dir:     true,
		modTime: clock.Real{}.Now(),
		mount:   &mount{fs: src, at: srcPath, readOnly: readOnly},
	}
	return nil
}

// MkdirAll creates a directory and all parents.
func (f *FS) MkdirAll(p string) error {
	f.mu.Lock()
	res, err := f.resolve(p, true)
	if err != nil {
		f.mu.Unlock()
		return err
	}
	if res.fs != nil {
		f.mu.Unlock()
		if res.readOnly {
			return fmt.Errorf("%s: %w", p, ErrReadOnly)
		}
		return res.fs.MkdirAll(res.path)
	}
	if res.node != nil {
		f.mu.Unlock()
		if !res.node.dir {
			return fmt.Errorf("%s: %w", p, ErrNotDir)
		}
		return nil
	}
	res.parent.children[res.leaf] = &node{name: res.leaf, dir: true, children: map[string]*node{}, modTime: clock.Real{}.Now()}
	f.mu.Unlock()
	return nil
}

// WriteFile creates or replaces a file with a copy of data.
func (f *FS) WriteFile(p string, data []byte) error {
	return f.WriteFileParts(p, [][]byte{bytes.Clone(data)})
}

// WriteFileParts creates or replaces a file whose contents are parts,
// concatenated, without copying them. The contract: the segments are
// immutable from here on — nobody, the caller included, writes their
// bytes again — which is what lets one segment back many files.
func (f *FS) WriteFileParts(p string, parts [][]byte) error {
	f.mu.Lock()
	res, err := f.resolve(p, true)
	if err != nil {
		f.mu.Unlock()
		return err
	}
	if res.fs != nil {
		f.mu.Unlock()
		if res.readOnly {
			return fmt.Errorf("%s: %w", p, ErrReadOnly)
		}
		return res.fs.WriteFileParts(res.path, parts)
	}
	var prev, size int64
	if res.node != nil {
		if res.node.dir {
			f.mu.Unlock()
			return fmt.Errorf("%s: %w", p, ErrIsDir)
		}
		prev = res.node.size
	}
	for _, part := range parts {
		size += int64(len(part))
	}
	if f.quota > 0 && f.used-prev+size > f.quota {
		f.mu.Unlock()
		return fmt.Errorf("%s: %w", p, ErrQuota)
	}
	f.used += size - prev
	// Clipped, so an append allocates its own list instead of writing
	// into spare capacity the caller may still hold.
	parts = slices.Clip(parts)
	if res.node != nil {
		res.node.parts, res.node.size = parts, size
		res.node.modTime = clock.Real{}.Now()
	} else {
		res.parent.children[res.leaf] = &node{name: res.leaf, parts: parts, size: size, modTime: clock.Real{}.Now()}
	}
	f.mu.Unlock()
	return nil
}

// ReadFile returns a copy of the file's contents.
func (f *FS) ReadFile(p string) ([]byte, error) {
	parts, size, err := f.Segments(p)
	if err != nil {
		return nil, err
	}
	out := make([]byte, 0, size)
	for _, part := range parts {
		out = append(out, part...)
	}
	return out, nil
}

// Segments returns a regular file's segment list and total size,
// without copying either. The list is the file's own and, like its
// segments, immutable: the caller reads it and writes nothing. A later
// write to p replaces the file's list and leaves this one as it is.
func (f *FS) Segments(p string) ([][]byte, int64, error) {
	f.mu.RLock()
	res, err := f.resolve(p, false)
	if err != nil {
		f.mu.RUnlock()
		return nil, 0, err
	}
	if res.fs != nil {
		f.mu.RUnlock()
		return res.fs.Segments(res.path)
	}
	defer f.mu.RUnlock()
	if res.node == nil {
		return nil, 0, fmt.Errorf("%s: %w", p, ErrNotExist)
	}
	if res.node.dir {
		return nil, 0, fmt.Errorf("%s: %w", p, ErrIsDir)
	}
	return res.node.parts, res.node.size, nil
}

// FileInfo describes a file or directory.
type FileInfo struct {
	Name    string
	Size    int64
	Dir     bool
	ModTime time.Time
}

// IsDir reports whether the entry is a directory.
func (fi FileInfo) IsDir() bool { return fi.Dir }

// Stat returns metadata for the path.
func (f *FS) Stat(p string) (FileInfo, error) {
	f.mu.RLock()
	res, err := f.resolve(p, false)
	if err != nil {
		f.mu.RUnlock()
		return FileInfo{}, err
	}
	if res.fs != nil {
		f.mu.RUnlock()
		return res.fs.Stat(res.path)
	}
	if res.node == nil {
		f.mu.RUnlock()
		return FileInfo{}, fmt.Errorf("%s: %w", p, ErrNotExist)
	}
	fi := FileInfo{Name: res.node.name, Size: res.node.size, Dir: res.node.dir, ModTime: res.node.modTime}
	f.mu.RUnlock()
	return fi, nil
}

// Exists reports whether p resolves to a file or directory.
func (f *FS) Exists(p string) bool {
	_, err := f.Stat(p)
	return err == nil
}

// ReadDir lists a directory in name order.
func (f *FS) ReadDir(p string) ([]FileInfo, error) {
	f.mu.RLock()
	res, err := f.resolve(p, false)
	if err != nil {
		f.mu.RUnlock()
		return nil, err
	}
	if res.fs != nil {
		f.mu.RUnlock()
		return res.fs.ReadDir(res.path)
	}
	if res.node == nil {
		f.mu.RUnlock()
		return nil, fmt.Errorf("%s: %w", p, ErrNotExist)
	}
	if !res.node.dir {
		f.mu.RUnlock()
		return nil, fmt.Errorf("%s: %w", p, ErrNotDir)
	}
	out := make([]FileInfo, 0, len(res.node.children))
	for _, c := range res.node.children {
		out = append(out, FileInfo{Name: c.name, Size: c.size, Dir: c.dir, ModTime: c.modTime})
	}
	f.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out, nil
}

// Remove deletes a file or empty directory.
func (f *FS) Remove(p string) error {
	return f.remove(p, false)
}

// RemoveAll deletes a file or directory recursively. Removing a mount
// point detaches it without touching the mounted filesystem.
func (f *FS) RemoveAll(p string) error {
	err := f.remove(p, true)
	if errors.Is(err, ErrNotExist) {
		return nil
	}
	return err
}

func (f *FS) remove(p string, recursive bool) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	cp, err := clean(p)
	if err != nil {
		return err
	}
	if cp == "/" {
		return fmt.Errorf("cannot remove /")
	}
	// Removing a mount point itself detaches it rather than deleting
	// through it.
	dir, leaf := path.Split(cp)
	if pres, perr := f.resolve(path.Clean(dir), false); perr == nil && pres.fs == nil && pres.node != nil && pres.node.dir {
		if child, ok := pres.node.children[leaf]; ok && child.mount != nil {
			delete(pres.node.children, leaf)
			return nil
		}
	}
	res, err := f.resolve(cp, false)
	if err != nil {
		return err
	}
	if res.fs != nil {
		// The path traverses into a mount: delegate.
		f.mu.Unlock()
		defer f.mu.Lock()
		if res.readOnly {
			return fmt.Errorf("%s: %w", p, ErrReadOnly)
		}
		if recursive {
			return res.fs.RemoveAll(res.path)
		}
		return res.fs.Remove(res.path)
	}
	if res.node == nil {
		return fmt.Errorf("%s: %w", p, ErrNotExist)
	}
	if res.node.dir && !recursive && len(res.node.children) > 0 {
		return fmt.Errorf("%s: %w", p, ErrNotEmpty)
	}
	f.used -= subtreeSize(res.node)
	delete(res.parent.children, res.leaf)
	return nil
}

func subtreeSize(n *node) int64 {
	if n.mount != nil {
		return 0
	}
	if !n.dir {
		return n.size
	}
	var s int64
	for _, c := range n.children {
		s += subtreeSize(c)
	}
	return s
}

// CopyTree copies the subtree at srcPath in src into dst at dstPath.
func CopyTree(dst *FS, dstPath string, src *FS, srcPath string) error {
	srcPath, err := clean(srcPath)
	if err != nil {
		return err
	}
	fi, err := src.Stat(srcPath)
	if err != nil {
		return err
	}
	if !fi.Dir {
		data, err := src.ReadFile(srcPath)
		if err != nil {
			return err
		}
		return dst.WriteFile(dstPath, data)
	}
	if err := dst.MkdirAll(dstPath); err != nil {
		return err
	}
	entries, err := src.ReadDir(srcPath)
	if err != nil {
		return err
	}
	for _, e := range entries {
		if err := CopyTree(dst, path.Join(dstPath, e.Name), src, path.Join(srcPath, e.Name)); err != nil {
			return err
		}
	}
	return nil
}

// ---- io/fs adapter ----

// IOFS returns an io/fs.FS view rooted at dir ("/" for the whole tree).
func (f *FS) IOFS(dir string) fs.FS { return ioFS{f: f, base: dir} }

type ioFS struct {
	f    *FS
	base string
}

func (i ioFS) abs(name string) (string, error) {
	if !fs.ValidPath(name) {
		return "", &fs.PathError{Op: "open", Path: name, Err: fs.ErrInvalid}
	}
	if name == "." {
		return i.base, nil
	}
	return path.Join(i.base, name), nil
}

func (i ioFS) Open(name string) (fs.File, error) {
	p, err := i.abs(name)
	if err != nil {
		return nil, err
	}
	fi, err := i.f.Stat(p)
	if err != nil {
		return nil, &fs.PathError{Op: "open", Path: name, Err: fs.ErrNotExist}
	}
	if fi.Dir {
		entries, err := i.f.ReadDir(p)
		if err != nil {
			return nil, &fs.PathError{Op: "open", Path: name, Err: err}
		}
		return &ioDir{info: fi, entries: entries}, nil
	}
	parts, _, err := i.f.Segments(p)
	if err != nil {
		return nil, &fs.PathError{Op: "open", Path: name, Err: err}
	}
	return &ioFile{info: fi, parts: parts}, nil
}

// Stat makes ioFS an fs.StatFS: fs.Stat, and the stat fs.WalkDir makes
// of its root, read the one entry instead of opening it, which for a
// directory would list it.
func (i ioFS) Stat(name string) (fs.FileInfo, error) {
	p, err := i.abs(name)
	if err != nil {
		return nil, err
	}
	fi, err := i.f.Stat(p)
	if err != nil {
		return nil, &fs.PathError{Op: "stat", Path: name, Err: fs.ErrNotExist}
	}
	return stdInfo{fi}, nil
}

func (i ioFS) ReadDir(name string) ([]fs.DirEntry, error) {
	p, err := i.abs(name)
	if err != nil {
		return nil, err
	}
	entries, err := i.f.ReadDir(p)
	if err != nil {
		return nil, &fs.PathError{Op: "readdir", Path: name, Err: err}
	}
	out := make([]fs.DirEntry, len(entries))
	for j, e := range entries {
		out[j] = dirEntry{e}
	}
	return out, nil
}

// ioFile reads the segments the file had when it was opened, in place:
// they are immutable, so opening copies nothing.
type ioFile struct {
	info     FileInfo
	parts    [][]byte
	seg, off int // read position: byte off of parts[seg]
}

func (f *ioFile) Stat() (fs.FileInfo, error) { return stdInfo{f.info}, nil }
func (f *ioFile) Close() error               { return nil }
func (f *ioFile) Read(p []byte) (int, error) {
	n := 0
	for n < len(p) && f.seg < len(f.parts) {
		c := copy(p[n:], f.parts[f.seg][f.off:])
		n += c
		if f.off += c; f.off == len(f.parts[f.seg]) {
			f.seg, f.off = f.seg+1, 0
		}
	}
	if n == 0 && len(p) > 0 {
		return 0, io.EOF
	}
	return n, nil
}

// ReadAt reads from the same segments, at any offset.
func (f *ioFile) ReadAt(p []byte, off int64) (int, error) {
	if off < 0 {
		return 0, &fs.PathError{Op: "readat", Path: f.info.Name, Err: fs.ErrInvalid}
	}
	n := 0
	for _, part := range f.parts {
		if off >= int64(len(part)) {
			off -= int64(len(part))
			continue
		}
		n += copy(p[n:], part[off:])
		if off = 0; n == len(p) {
			return n, nil
		}
	}
	return n, io.EOF
}

type ioDir struct {
	info    FileInfo
	entries []FileInfo
	off     int
}

func (d *ioDir) Stat() (fs.FileInfo, error) { return stdInfo{d.info}, nil }
func (d *ioDir) Close() error               { return nil }
func (d *ioDir) Read([]byte) (int, error) {
	return 0, &fs.PathError{Op: "read", Path: d.info.Name, Err: ErrIsDir}
}

func (d *ioDir) ReadDir(n int) ([]fs.DirEntry, error) {
	if n <= 0 {
		out := make([]fs.DirEntry, 0, len(d.entries)-d.off)
		for ; d.off < len(d.entries); d.off++ {
			out = append(out, dirEntry{d.entries[d.off]})
		}
		return out, nil
	}
	if d.off >= len(d.entries) {
		return nil, io.EOF
	}
	end := d.off + n
	if end > len(d.entries) {
		end = len(d.entries)
	}
	out := make([]fs.DirEntry, 0, end-d.off)
	for ; d.off < end; d.off++ {
		out = append(out, dirEntry{d.entries[d.off]})
	}
	return out, nil
}

type stdInfo struct{ fi FileInfo }

func (s stdInfo) Name() string { return s.fi.Name }
func (s stdInfo) Size() int64  { return s.fi.Size }
func (s stdInfo) Mode() fs.FileMode {
	if s.fi.Dir {
		return fs.ModeDir | 0o755
	}
	return 0o644
}
func (s stdInfo) ModTime() time.Time { return s.fi.ModTime }
func (s stdInfo) IsDir() bool        { return s.fi.Dir }
func (s stdInfo) Sys() any           { return nil }

type dirEntry struct{ fi FileInfo }

func (d dirEntry) Name() string { return d.fi.Name }
func (d dirEntry) IsDir() bool  { return d.fi.Dir }
func (d dirEntry) Type() fs.FileMode {
	if d.fi.Dir {
		return fs.ModeDir
	}
	return 0
}
func (d dirEntry) Info() (fs.FileInfo, error) { return stdInfo{d.fi}, nil }
