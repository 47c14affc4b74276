package cas

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"path"
	"sort"
	"strconv"
	"strings"
	"sync"

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
	// One line buffer for every record: a hash.Hash takes no strings, so
	// writing each as one would allocate per chunk.
	var line []byte
	for _, d := range m.Dirs {
		line = append(append(append(line[:0], "D "...), d...), '\n')
		h.Write(line)
	}
	for _, f := range m.Files {
		line = append(append(line[:0], "F "...), f.Path...)
		line = append(strconv.AppendInt(append(line, ' '), f.Size, 10), '\n')
		h.Write(line)
		for _, c := range f.Chunks {
			line = append(append(line[:0], c.Hash...), '\n')
			h.Write(line)
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

// Source yields chunk payloads by hash for upload. Build returns one
// alongside the manifest; it reads the underlying tree on demand so no
// chunk data is pinned in memory. A payload is valid until the next
// call to Chunk. A Source does not hash what it serves: the store
// refuses a payload that does not hash to its name (DESIGN.md §16), so
// a file that changed after it was scanned fails the upload there, by
// the one hash the write path makes.
type Source interface {
	// Size is the payload size of a chunk of the tree, as its manifest
	// refs record it; false for a hash the tree does not hold.
	Size(hash string) (int64, bool)
	Chunk(hash string) ([]byte, error)
	// Fresh lists, in scan order, the chunks of the files the scan read
	// whose hashes the stat index's last record does not name: those the
	// store most likely lacks, which an upload sends unasked. It is
	// empty when there was no record (a first scan, no index, a tree in
	// memory): then nothing is known of the store.
	Fresh() []string
}

type chunkLoc struct {
	path string
	off  int64
	size int64
}

// chunkLocs records where each chunk of a tree first appears, for its
// Source to read it from there.
type chunkLocs map[string]chunkLoc

func (l chunkLocs) Size(hash string) (int64, bool) {
	loc, ok := l[hash]
	return loc.size, ok
}

// add records where each chunk of fe first appears.
func (l chunkLocs) add(fe FileEntry) {
	var off int64
	for _, c := range fe.Chunks {
		if _, ok := l[c.Hash]; !ok {
			l[c.Hash] = chunkLoc{path: fe.Path, off: off, size: c.Size}
		}
		off += c.Size
	}
}

// readWindow is how much of a file a Source reads at once when it needs
// a window larger than the scan's buffer: an upload asks for a file's
// chunks in order, so one read serves a run of them.
const readWindow = 1 << 20

// treeSource serves chunks from the tree Build scanned, read back on
// every call through the file's io.ReaderAt. It keeps the last read — a
// window of one file, in one buffer it reuses, which starts as the
// buffer Build read the tree through — and serves a chunk from it when
// the chunk lies inside; no file stays open between calls.
type treeSource struct {
	fsys  fs.FS
	fresh []string
	chunkLocs

	mu      sync.Mutex
	win     []byte // bytes [winOff, winOff+len(win)) of winPath
	winPath string
	winOff  int64
}

func (s *treeSource) Fresh() []string { return s.fresh }

func (s *treeSource) Chunk(hash string) ([]byte, error) {
	loc, ok := s.chunkLocs[hash]
	if !ok {
		return nil, fmt.Errorf("cas: unknown chunk %s", hash)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if loc.path != s.winPath || loc.off < s.winOff || loc.off+loc.size > s.winOff+int64(len(s.win)) {
		if err := s.fill(loc); err != nil {
			if errors.Is(err, io.ErrUnexpectedEOF) {
				return nil, fmt.Errorf("cas: %s changed while uploading (chunk %s): the file is shorter", loc.path, hash)
			}
			return nil, fmt.Errorf("cas: rereading chunk %s from %s: %w", hash, loc.path, err)
		}
	}
	return s.win[loc.off-s.winOff:][:loc.size], nil
}

// fill reads the window of loc's file that starts at loc.
func (s *treeSource) fill(loc chunkLoc) error {
	s.winPath, s.win = "", s.win[:0]
	f, err := s.fsys.Open(loc.path)
	if err != nil {
		return err
	}
	defer f.Close()
	ra, ok := f.(io.ReaderAt)
	if !ok {
		return errors.New("the file has no ReadAt")
	}
	if int64(cap(s.win)) < loc.size {
		s.win = make([]byte, 0, readWindow) // over MaxChunk: a window holds any chunk
	}
	n, err := ra.ReadAt(s.win[:cap(s.win)], loc.off)
	if int64(n) < loc.size {
		if err == nil || err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return err
	}
	s.win, s.winPath, s.winOff = s.win[:n], loc.path, loc.off
	return nil
}

// chunkFile splits one file's content into its manifest entry.
func chunkFile(rel string, data []byte) FileEntry {
	fe := FileEntry{Path: rel, Size: int64(len(data))}
	for _, c := range Split(data) {
		fe.Chunks = append(fe.Chunks, ChunkRef{Hash: HashHex(c), Size: int64(len(c))})
	}
	return fe
}

// readFile reads a whole file of fsys into buf, which it grows when the
// file is larger, and returns the bytes read and the stat data of the
// file it read through. The bytes share buf's array: a scan reads every
// file through one buffer, so a tree costs one file's worth of fresh
// pages, not its size.
func readFile(fsys fs.FS, name string, buf []byte) ([]byte, fs.FileInfo, error) {
	f, err := fsys.Open(name)
	if err != nil {
		return nil, nil, err
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return nil, nil, err
	}
	if need := fi.Size() + bytes.MinRead; int64(cap(buf)) < need {
		buf = make([]byte, 0, need)
	}
	b := bytes.NewBuffer(buf[:0])
	if _, err := b.ReadFrom(f); err != nil {
		return nil, nil, err
	}
	return b.Bytes(), fi, nil
}

// skipDir reports whether a directory is version-control metadata
// (.git, .hg, .svn): a submission ships the project, not its history.
func skipDir(name string) bool {
	return name == ".git" || name == ".hg" || name == ".svn"
}

// Build scans the project tree fsys into a manifest plus a Source for
// its chunks: os.DirFS serves a host directory, vfs.FS.IOFS a tree in
// memory. VCS metadata directories (skipDir) are not entered and only
// regular files are included; sockets, symlinks and devices are not
// shipped. The Source reads chunks back through the files' io.ReaderAt.
//
// idx is the tree's stat index (DirIndex): a file whose stat data is a
// trusted entry's key is not read, and its refs come from the index;
// every other file is read and chunked. The manifest is the same either
// way. Only a host file's stat data can be a key, so a tree in memory is
// read whole. The Source's Fresh lists the chunks of the files read that
// the index's last record does not name. Every file is read through one
// buffer, which the Source then reads its windows into; the Source
// hashes nothing, and the store refuses a chunk whose bytes changed
// since the scan. After a successful scan the index is rewritten. A nil
// idx holds nothing.
func Build(fsys fs.FS, idx *DirIndex) (*Manifest, Source, error) {
	m := &Manifest{}
	src := &treeSource{fsys: fsys, chunkLocs: make(chunkLocs)}
	var buf []byte
	scan := idx.begin()
	err := fs.WalkDir(fsys, ".", func(rel string, d fs.DirEntry, err error) error {
		if err != nil || rel == "." {
			return err
		}
		if d.IsDir() {
			if skipDir(d.Name()) {
				return fs.SkipDir
			}
			m.Dirs = append(m.Dirs, rel)
			return nil
		}
		if !d.Type().IsRegular() {
			return nil
		}
		fe, ok := scan.reuse(rel, d)
		if !ok {
			data, fi, rerr := readFile(fsys, rel, buf)
			if rerr != nil {
				return rerr
			}
			buf = data[:0]
			fe = chunkFile(rel, data)
			scan.record(fe, fi)
			src.fresh = scan.appendFresh(src.fresh, fe)
		}
		src.add(fe)
		m.Files = append(m.Files, fe)
		m.TotalBytes += fe.Size
		return nil
	})
	scan.finish(err == nil)
	if err != nil {
		return nil, nil, fmt.Errorf("cas: scanning project tree: %w", err)
	}
	m.Seal()
	src.win = buf
	return m, src, nil
}

// ---- materializing ----

// Fetcher reads chunks in bulk (core.Objects, narrowed to what
// Materialize calls). GetChunks hands each the payload of every named
// chunk, in the order asked, as a slice of its own: each owns data and
// may keep it, and the Fetcher never writes it again. An error from each
// ends the transfer and is returned. A transfer that fails part-way may
// start over from the first hash, so each must tolerate seeing a chunk
// again.
type Fetcher interface {
	GetChunks(ctx context.Context, hashes []string, each func(hash string, data []byte) error) error
}

// Stats counts where one Materialize found the tree's distinct chunks.
type Stats struct {
	Cached  int   // served by the cache: no request, no copy, no re-hash
	Fetched int   // read from the Fetcher and verified as they landed
	Bytes   int64 // the fetched chunks' payload bytes
}

// Materialize reconstructs the manifest's tree under root in dst. The
// manifest is validated first, so nothing is read or written for one
// that breaks the tree limits. Chunks the cache holds are taken from it
// as they are: bytes addressed by their SHA-256 cannot go stale, so a hit
// is neither copied nor hashed again. The misses, and only those, are
// read in one bulk call in first-use order; a transfer that restarts
// replays chunks that already landed, which are skipped, and any other
// chunk than the one due is an error. Each fetched chunk is hashed once
// as it lands and kept as the Fetcher handed it over, without a copy,
// and offered to the cache.
// A tree the cache holds whole costs no request at all. Every file is
// then installed as its list of chunk segments (vfs.WriteFileParts), so
// a chunk referred to twice is shared, not cloned, and each ref's size
// is checked against its chunk's, so the bytes written never exceed the
// sums validate checked. A nil cache holds nothing.
func Materialize(ctx context.Context, m *Manifest, src Fetcher, cache *Cache, dst *vfs.FS, root string) (Stats, error) {
	var st Stats
	if err := m.validate(); err != nil {
		return st, err
	}
	if err := dst.MkdirAll(root); err != nil {
		return st, err
	}
	for _, d := range m.Dirs {
		if err := dst.MkdirAll(path.Join(root, d)); err != nil {
			return st, err
		}
	}
	order := m.ChunkSet()
	chunks := make(map[string][]byte, len(order))
	var misses []string
	for _, hash := range order {
		if data, ok := cache.get(hash); ok {
			chunks[hash] = data
			st.Cached++
		} else {
			misses = append(misses, hash)
		}
	}
	if len(misses) > 0 {
		err := src.GetChunks(ctx, misses, func(hash string, data []byte) error {
			if _, landed := chunks[hash]; landed {
				return nil
			}
			if st.Fetched == len(misses) || hash != misses[st.Fetched] {
				return fmt.Errorf("cas: chunk %s arrived out of order", hash)
			}
			if HashHex(data) != hash {
				return fmt.Errorf("cas: chunk %s: fetched %d bytes that hash differently", hash, len(data))
			}
			chunks[hash] = data
			cache.put(hash, data)
			st.Fetched++
			st.Bytes += int64(len(data))
			return nil
		})
		if err != nil {
			return st, err
		}
		if st.Fetched != len(misses) {
			return st, fmt.Errorf("cas: chunk stream ended after %d of %d chunks", st.Fetched, len(misses))
		}
	}
	for _, f := range m.Files {
		parts := make([][]byte, len(f.Chunks))
		for i, ref := range f.Chunks {
			parts[i] = chunks[ref.Hash]
			// Every ref must agree with the bytes on the size validate counted.
			if int64(len(parts[i])) != ref.Size {
				return st, fmt.Errorf("%s: cas: chunk %s is %d bytes, ref says %d", f.Path, ref.Hash, len(parts[i]), ref.Size)
			}
		}
		if err := dst.WriteFileParts(path.Join(root, f.Path), parts); err != nil {
			return st, err
		}
	}
	return st, nil
}
