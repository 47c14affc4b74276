package cas

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"rai/internal/vfs"
)

// Magic prefixes every encoded manifest; an upload object without it
// is not a project and fails the job.
const Magic = "RAICAS1\n"

// Limits of one project tree, declared here once: archivex's unpack
// defaults are these same constants, so /src and /build are bounded by
// one policy. A manifest describing more than this is rejected before
// any chunk is fetched or any buffer sized from it.
const (
	MaxFiles         = 100_000
	MaxFileBytes     = 256 << 20
	MaxTreeBytes     = 1 << 30
	MaxManifestBytes = 64 << 20
)

// ChunkRef names one chunk of a file.
type ChunkRef struct {
	Hash string `json:"h"`
	Size int64  `json:"s"`
}

// FileEntry is one regular file in the tree, in manifest (path-sorted)
// order. Concatenating its chunks reproduces the file exactly.
type FileEntry struct {
	Path   string     `json:"path"`
	Size   int64      `json:"size"`
	Chunks []ChunkRef `json:"chunks,omitempty"`
}

// Manifest is the content-addressed description of a project tree: the
// upload object of every submission.
type Manifest struct {
	// TreeHash is the canonical content hash of the whole tree (dirs,
	// paths, and chunk hashes); Decode recomputes and checks it.
	TreeHash string `json:"tree_hash"`
	// TotalBytes is the sum of file sizes — what a full upload would
	// have transferred before compression.
	TotalBytes int64 `json:"total_bytes"`
	// Dirs lists every directory under the root (sorted), so empty
	// directories survive the round trip exactly like tar's type-D
	// entries.
	Dirs  []string    `json:"dirs,omitempty"`
	Files []FileEntry `json:"files,omitempty"`
}

// ChunkSet returns the distinct chunk hashes in manifest order.
func (m *Manifest) ChunkSet() []string {
	seen := make(map[string]bool)
	var out []string
	for _, f := range m.Files {
		for _, c := range f.Chunks {
			if !seen[c.Hash] {
				seen[c.Hash] = true
				out = append(out, c.Hash)
			}
		}
	}
	return out
}

// computeTreeHash derives the canonical tree hash from the manifest's
// dirs, file paths/sizes, and chunk hashes. Chunk boundaries are
// deterministic (fixed gear table), so two trees with identical content
// hash identically no matter where the manifest was built.
func computeTreeHash(m *Manifest) string {
	h := sha256.New()
	for _, d := range m.Dirs {
		_, _ = io.WriteString(h, "D "+d+"\n")
	}
	for _, f := range m.Files {
		_, _ = io.WriteString(h, "F "+f.Path+" "+strconv.FormatInt(f.Size, 10)+"\n")
		for _, c := range f.Chunks {
			_, _ = io.WriteString(h, c.Hash+"\n")
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// Seal sorts the manifest canonically and stamps TreeHash.
func (m *Manifest) Seal() {
	sort.Strings(m.Dirs)
	sort.Slice(m.Files, func(i, j int) bool { return m.Files[i].Path < m.Files[j].Path })
	m.TreeHash = computeTreeHash(m)
}

// Encode serializes the manifest behind the magic prefix.
func (m *Manifest) Encode() []byte {
	body, err := json.Marshal(m)
	if err != nil {
		// Manifest contains only strings and integers; Marshal cannot fail.
		panic("cas: encoding manifest: " + err.Error())
	}
	out := make([]byte, 0, len(Magic)+len(body))
	out = append(out, Magic...)
	return append(out, body...)
}

// Decode parses and validates an encoded manifest: magic, size caps,
// safe relative paths, per-chunk/per-file/per-tree limits, and a tree
// hash that matches the content. A manifest that fails here is rejected
// before any chunk I/O happens.
func Decode(data []byte) (*Manifest, error) {
	if int64(len(data)) > MaxManifestBytes {
		return nil, fmt.Errorf("cas: manifest exceeds %d bytes", int64(MaxManifestBytes))
	}
	if !bytes.HasPrefix(data, []byte(Magic)) {
		return nil, fmt.Errorf("cas: missing manifest magic")
	}
	var m Manifest
	if err := json.Unmarshal(data[len(Magic):], &m); err != nil {
		return nil, fmt.Errorf("cas: parsing manifest: %w", err)
	}
	if err := m.validate(); err != nil {
		return nil, err
	}
	if got := computeTreeHash(&m); got != m.TreeHash {
		return nil, fmt.Errorf("cas: tree hash mismatch: manifest says %s, content is %s", m.TreeHash, got)
	}
	return &m, nil
}

// validate checks everything about a manifest that bounds what
// materializing it may touch or allocate: entry count, path safety,
// chunk refs no larger than the chunker can produce, sizes that add up,
// and the per-file and per-tree byte limits. Sizes are summed from the
// refs, so a chunk referenced many times counts every time it would be
// written.
func (m *Manifest) validate() error {
	if len(m.Files) > MaxFiles {
		return fmt.Errorf("cas: manifest lists %d files (limit %d)", len(m.Files), MaxFiles)
	}
	for _, d := range m.Dirs {
		if err := checkRel(d); err != nil {
			return err
		}
	}
	var total int64
	for _, f := range m.Files {
		if err := checkRel(f.Path); err != nil {
			return err
		}
		var sum int64
		for _, c := range f.Chunks {
			if !ValidHash(c.Hash) || c.Size <= 0 || c.Size > MaxChunk {
				return fmt.Errorf("cas: malformed chunk ref %q (%d bytes) in %s", c.Hash, c.Size, f.Path)
			}
			sum += c.Size
			if sum > MaxFileBytes {
				return fmt.Errorf("cas: %s exceeds %d bytes", f.Path, int64(MaxFileBytes))
			}
		}
		if sum != f.Size {
			return fmt.Errorf("cas: %s: chunk sizes sum to %d, file size %d", f.Path, sum, f.Size)
		}
		total += sum
		if total > MaxTreeBytes {
			return fmt.Errorf("cas: tree exceeds %d bytes", int64(MaxTreeBytes))
		}
	}
	if total != m.TotalBytes {
		return fmt.Errorf("cas: total bytes %d, files sum to %d", m.TotalBytes, total)
	}
	return nil
}

// checkRel rejects the traversal shapes a hostile manifest could use to
// escape the materialization root (the same guard archivex applies to
// tar member names).
func checkRel(p string) error {
	if p == "" || strings.HasPrefix(p, "/") {
		return fmt.Errorf("cas: unsafe path %q in manifest", p)
	}
	if cp := path.Clean(p); cp != p || cp == ".." || strings.HasPrefix(cp, "../") {
		return fmt.Errorf("cas: unsafe path %q in manifest", p)
	}
	return nil
}

// ---- building ----

// Source yields chunk payloads by hash for upload. Build functions
// return one alongside the manifest; it re-reads the underlying tree on
// demand so no chunk data is pinned in memory.
type Source interface {
	Chunk(hash string) ([]byte, error)
}

type chunkLoc struct {
	path string
	off  int64
	size int64
}

type dirSource struct {
	root string
	locs map[string]chunkLoc
}

func (s *dirSource) Chunk(hash string) ([]byte, error) {
	loc, ok := s.locs[hash]
	if !ok {
		return nil, fmt.Errorf("cas: unknown chunk %s", hash)
	}
	f, err := os.Open(filepath.Join(s.root, filepath.FromSlash(loc.path)))
	if err != nil {
		return nil, err
	}
	defer f.Close()
	buf := make([]byte, loc.size)
	if _, err := f.ReadAt(buf, loc.off); err != nil {
		return nil, fmt.Errorf("cas: rereading chunk %s from %s: %w", hash, loc.path, err)
	}
	if HashHex(buf) != hash {
		return nil, fmt.Errorf("cas: %s changed while uploading (chunk %s)", loc.path, hash)
	}
	return buf, nil
}

type vfsSource struct {
	fs   *vfs.FS
	root string
	locs map[string]chunkLoc
}

func (s *vfsSource) Chunk(hash string) ([]byte, error) {
	loc, ok := s.locs[hash]
	if !ok {
		return nil, fmt.Errorf("cas: unknown chunk %s", hash)
	}
	data, err := s.fs.ReadFile(path.Join(s.root, loc.path))
	if err != nil {
		return nil, err
	}
	if loc.off+loc.size > int64(len(data)) {
		return nil, fmt.Errorf("cas: chunk %s out of range in %s", hash, loc.path)
	}
	buf := data[loc.off : loc.off+loc.size]
	if HashHex(buf) != hash {
		return nil, fmt.Errorf("cas: %s changed while uploading (chunk %s)", loc.path, hash)
	}
	return buf, nil
}

// chunkFile splits one file's content and records chunk refs + locations.
func chunkFile(rel string, data []byte, locs map[string]chunkLoc) FileEntry {
	fe := FileEntry{Path: rel, Size: int64(len(data))}
	var off int64
	for _, c := range Split(data) {
		h := HashHex(c)
		fe.Chunks = append(fe.Chunks, ChunkRef{Hash: h, Size: int64(len(c))})
		if _, ok := locs[h]; !ok {
			locs[h] = chunkLoc{path: rel, off: off, size: int64(len(c))}
		}
		off += int64(len(c))
	}
	return fe
}

// skipDir mirrors archivex.PackDirTo's VCS-metadata exclusions so the
// manifest describes exactly the tree a packed archive would carry.
func skipDir(name string) bool {
	return name == ".git" || name == ".hg" || name == ".svn"
}

// BuildDir scans a host directory into a manifest plus a Source for its
// chunks. File selection matches archivex.PackDir: VCS metadata
// directories are skipped and only regular files are included, so the
// tree hash agrees with what the worker computes after unpacking the
// equivalent archive.
func BuildDir(root string) (*Manifest, Source, error) {
	m := &Manifest{}
	src := &dirSource{root: root, locs: make(map[string]chunkLoc)}
	err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, rerr := filepath.Rel(root, p)
		if rerr != nil {
			return rerr
		}
		rel = filepath.ToSlash(rel)
		if rel == "." {
			return nil
		}
		if d.IsDir() {
			if skipDir(d.Name()) {
				return filepath.SkipDir
			}
			m.Dirs = append(m.Dirs, rel)
			return nil
		}
		if !d.Type().IsRegular() {
			return nil
		}
		data, rerr := os.ReadFile(p)
		if rerr != nil {
			return rerr
		}
		fe := chunkFile(rel, data, src.locs)
		m.Files = append(m.Files, fe)
		m.TotalBytes += fe.Size
		return nil
	})
	if err != nil {
		return nil, nil, fmt.Errorf("cas: scanning %s: %w", root, err)
	}
	m.Seal()
	return m, src, nil
}

// BuildVFS scans a virtual-filesystem subtree into a manifest plus a
// chunk Source — BuildDir for trees that live in memory (simulations,
// examples, tests).
func BuildVFS(fsys *vfs.FS, root string) (*Manifest, Source, error) {
	m := &Manifest{}
	src := &vfsSource{fs: fsys, root: root, locs: make(map[string]chunkLoc)}
	cleanRoot := path.Clean(root)
	err := fsys.Walk(cleanRoot, func(p string, fi vfs.FileInfo) error {
		rel := strings.TrimPrefix(p, cleanRoot)
		rel = strings.TrimPrefix(rel, "/")
		if rel == "" {
			return nil
		}
		if fi.Dir {
			if skipDir(fi.Name) {
				return nil // vfs.Walk has no SkipDir; children are filtered below
			}
			m.Dirs = append(m.Dirs, rel)
			return nil
		}
		data, rerr := fsys.ReadFile(p)
		if rerr != nil {
			return rerr
		}
		fe := chunkFile(rel, data, src.locs)
		m.Files = append(m.Files, fe)
		m.TotalBytes += fe.Size
		return nil
	})
	if err != nil {
		return nil, nil, fmt.Errorf("cas: scanning vfs %s: %w", root, err)
	}
	// Filter out anything under a skipped VCS directory (Walk cannot
	// prune subtrees).
	m.Dirs = filterSkipped(m.Dirs)
	files := m.Files[:0]
	m.TotalBytes = 0
	for _, f := range m.Files {
		if underSkipped(f.Path) {
			continue
		}
		files = append(files, f)
		m.TotalBytes += f.Size
	}
	m.Files = files
	m.Seal()
	return m, src, nil
}

func underSkipped(rel string) bool {
	for _, seg := range strings.Split(rel, "/") {
		if skipDir(seg) {
			return true
		}
	}
	return false
}

func filterSkipped(dirs []string) []string {
	out := dirs[:0]
	for _, d := range dirs {
		if !underSkipped(d) {
			out = append(out, d)
		}
	}
	return out
}

// ---- materializing ----

// Fetcher reads chunks in bulk (core.Objects, narrowed to what
// Materialize calls). GetChunks hands each the payload of every named
// chunk, in the order asked; data is only valid during the call. An
// error from each ends the transfer and is returned. A transfer that
// fails part-way may start over from the first hash, so each must
// tolerate seeing a chunk again.
type Fetcher interface {
	GetChunks(ctx context.Context, hashes []string, each func(hash string, data []byte) error) error
}

// Materialize reconstructs the manifest's tree under root in dst from
// one bulk read of its distinct chunks, verifying every chunk against
// its ref's size and hash before it lands. The manifest is validated
// before the read starts, so the bytes written never exceed the tree
// limits however often a chunk repeats. It returns the number of chunks
// fetched and their bytes.
//
// Chunks are asked for in first-use order, so each arrives exactly when
// the file being assembled needs it and is copied straight into that
// file's buffer; only a chunk with further refs to come is held, and
// only until the last of them is written. Memory is one file plus those.
func Materialize(ctx context.Context, m *Manifest, src Fetcher, dst *vfs.FS, root string) (fetches int, bytesFetched int64, err error) {
	if err := m.validate(); err != nil {
		return 0, 0, err
	}
	if err := dst.MkdirAll(root); err != nil {
		return 0, 0, err
	}
	for _, d := range m.Dirs {
		if err := dst.MkdirAll(path.Join(root, d)); err != nil {
			return 0, 0, err
		}
	}
	order := m.ChunkSet()
	mz := &materializer{m: m, dst: dst, root: root, chunks: make(map[string]*chunkState, len(order))}
	for i, hash := range order {
		mz.chunks[hash] = &chunkState{seq: i}
	}
	for _, f := range m.Files {
		for _, c := range f.Chunks {
			mz.chunks[c.Hash].uses++
		}
	}
	// Files ahead of the first chunk (empty ones, or a tree with no
	// chunks at all) wait for no frame.
	if err := mz.fill(); err != nil {
		return 0, 0, err
	}
	if len(order) > 0 {
		if err := src.GetChunks(ctx, order, mz.land); err != nil {
			return mz.landed, mz.bytes, err
		}
	}
	if mz.landed != len(order) {
		return mz.landed, mz.bytes, fmt.Errorf("cas: chunk stream ended after %d of %d chunks", mz.landed, len(order))
	}
	return mz.landed, mz.bytes, nil
}

// chunkState tracks one distinct chunk through a Materialize.
type chunkState struct {
	seq  int    // position in the stream
	uses int    // refs not yet written
	data []byte // payload, from landing until the last ref is written
}

// materializer is the state of one Materialize: a cursor over the
// manifest's refs in order and the file being assembled at it.
type materializer struct {
	m      *Manifest
	dst    *vfs.FS
	root   string
	chunks map[string]*chunkState

	landed    int   // chunks of the stream consumed
	bytes     int64 // their payload bytes
	file, ref int   // cursor: the next ref to write
	buf       []byte
}

// land takes the next chunk of the stream. One that already landed — a
// restarted transfer replaying its head — is skipped; any other than
// the one the cursor waits for is an error.
func (mz *materializer) land(hash string, data []byte) error {
	st := mz.chunks[hash]
	if st == nil || st.seq > mz.landed {
		return fmt.Errorf("cas: chunk %s arrived out of order", hash)
	}
	if st.seq < mz.landed {
		return nil
	}
	if HashHex(data) != hash {
		return fmt.Errorf("cas: chunk %s: fetched %d bytes that hash differently", hash, len(data))
	}
	mz.landed++
	mz.bytes += int64(len(data))
	// data is the caller's for this call only: the ref under the cursor
	// copies it out now, later refs need a copy that stays.
	st.data = data
	if st.uses > 1 {
		st.data = bytes.Clone(data)
	}
	return mz.fill()
}

// fill advances the cursor over every ref whose chunk has landed,
// writing each file out as its last ref is copied in, and stops at the
// first ref still waiting for its chunk.
func (mz *materializer) fill() error {
	for mz.file < len(mz.m.Files) {
		f := &mz.m.Files[mz.file]
		if mz.ref == len(f.Chunks) {
			if err := mz.dst.WriteFile(path.Join(mz.root, f.Path), mz.buf); err != nil {
				return err
			}
			mz.file, mz.ref, mz.buf = mz.file+1, 0, nil
			continue
		}
		ref := f.Chunks[mz.ref]
		st := mz.chunks[ref.Hash]
		if st.seq >= mz.landed {
			return nil
		}
		// Every ref must agree with the bytes on the size validate counted.
		if int64(len(st.data)) != ref.Size {
			return fmt.Errorf("%s: cas: chunk %s is %d bytes, ref says %d", f.Path, ref.Hash, len(st.data), ref.Size)
		}
		if mz.buf == nil {
			mz.buf = make([]byte, 0, f.Size)
		}
		mz.buf = append(mz.buf, st.data...)
		mz.ref++
		if st.uses--; st.uses == 0 {
			st.data = nil
		}
	}
	return nil
}
