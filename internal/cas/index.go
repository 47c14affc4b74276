package cas

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"io/fs"
	"os"
	"path/filepath"
	"time"
)

// DirIndex is what Build remembers of one project directory between
// runs, in the manner of git's index: for every regular file it last
// scanned, the file's stat key and its chunk refs. A file whose stat key
// still equals a trusted entry's is not opened, read, chunked or hashed
// again; its refs are taken as recorded. Every other file is read as if
// there were no index, so the manifest is byte-identical to a full scan.
//
// An entry is trusted only if its recorded mtime and ctime are strictly
// older than the stamp of the scan that recorded it: the mtime of the
// index's temp file, created before that scan read its first file (the
// racy-clean rule of git's racy-git.txt). Any write after the stamp gives
// the file a ctime at or past it, and no user can set a ctime, so a file
// changed since it was read never matches a trusted entry, even after
// its mtime is put back. A file written in the stamp's own clock tick is
// recorded, and read again on the next scan. This assumes the project
// and the index share the kernel's clock.
//
// The index is a cache. A missing, torn, foreign or corrupt index file
// is an empty index, and one that cannot be written is no index; neither
// is an error. A nil *DirIndex is an index that holds nothing.
type DirIndex struct {
	path string // the index file; its temp files sit beside it
}

// ProjectIndex returns the index of the project at root, kept in the
// user's cache directory under rai/index/ and named by the SHA-256 of
// root's absolute path, or nil when the user has no cache directory.
func ProjectIndex(root string) *DirIndex {
	cache, err := os.UserCacheDir()
	if err != nil {
		return nil
	}
	abs, err := filepath.Abs(root)
	if err != nil {
		return nil
	}
	sum := sha256.Sum256([]byte(abs))
	return &DirIndex{path: filepath.Join(cache, "rai", "index", hex.EncodeToString(sum[:]))}
}

// fileKey is the stat data an index entry is valid for: git's, less
// the owner, with both times in nanoseconds.
type fileKey struct {
	dev, ino     uint64
	size         int64
	mode         uint32
	mtime, ctime int64
}

type indexEntry struct {
	key     fileKey
	refs    []ChunkRef
	trusted bool // older than the stamp of the scan that recorded it
}

// The index file is the magic, the version, the stamp, then one record
// per file in walk order (path, key, refs with each hash in hex), then
// the SHA-256 of everything before it. Integers are varints.
const (
	indexMagic   = "RAI-STAT-INDEX\n"
	indexVersion = 1
)

// indexScan is one Build's use of its DirIndex: the entries the last
// scan left, and this scan's record, written to the temp file whose
// mtime is its stamp. A nil *indexScan reads every file and records
// nothing.
type indexScan struct {
	idx   *DirIndex
	tmp   *os.File
	prev  map[string]indexEntry
	named map[string]bool // the chunk hashes prev names, and those listed fresh; built on first use
	body  []byte
}

// begin creates the temp file this scan's index goes to, which takes
// the stamp, and then loads the last scan's entries. It returns
// nil when the index's directory cannot be written.
func (idx *DirIndex) begin() *indexScan {
	if idx == nil {
		return nil
	}
	dir := filepath.Dir(idx.path)
	pattern := filepath.Base(idx.path) + ".*"
	tmp, err := os.CreateTemp(dir, pattern)
	if err != nil {
		if os.MkdirAll(dir, 0o700) != nil {
			return nil
		}
		if tmp, err = os.CreateTemp(dir, pattern); err != nil {
			return nil
		}
	}
	fi, err := tmp.Stat()
	if err != nil {
		_ = tmp.Close() // unwritten, and removed next
		_ = os.Remove(tmp.Name())
		return nil
	}
	sc := &indexScan{idx: idx, tmp: tmp, body: indexHeader(fi.ModTime().UnixNano())}
	if data, err := os.ReadFile(idx.path); err == nil {
		sc.prev = decodeIndex(data)
	}
	return sc
}

func indexHeader(stamp int64) []byte {
	return binary.AppendVarint(binary.AppendUvarint([]byte(indexMagic), indexVersion), stamp)
}

// reuse returns rel's manifest entry from the last scan when the file's
// stat key is a trusted entry's, and records it again as it was.
func (sc *indexScan) reuse(rel string, d fs.DirEntry) (FileEntry, bool) {
	if sc == nil {
		return FileEntry{}, false
	}
	e, ok := sc.prev[rel]
	if !ok || !e.trusted {
		return FileEntry{}, false
	}
	fi, err := d.Info()
	if err != nil {
		return FileEntry{}, false
	}
	if k, ok := statKey(fi); !ok || k != e.key {
		return FileEntry{}, false
	}
	fe := FileEntry{Path: rel, Size: e.key.size, Chunks: e.refs}
	sc.body = appendEntry(sc.body, fe, e.key)
	return fe, true
}

// record adds a file just read, with the stat data of the descriptor it
// was read through, to this scan's index.
func (sc *indexScan) record(fe FileEntry, fi fs.FileInfo) {
	if sc == nil {
		return
	}
	// No key this platform can trust, or a file that grew or shrank
	// while it was read: leave it out, and it is read again next time.
	if k, ok := statKey(fi); ok && k.size == fe.Size {
		sc.body = appendEntry(sc.body, fe, k)
	}
}

// appendFresh appends to fresh each chunk of fe, a file this scan read,
// that the last scan's record does not name and fresh does not hold:
// the chunks the store most likely lacks. With no record it knows
// nothing of the store, and appends none.
func (sc *indexScan) appendFresh(fresh []string, fe FileEntry) []string {
	if sc == nil || sc.prev == nil {
		return fresh
	}
	if sc.named == nil {
		sc.named = make(map[string]bool)
		for _, e := range sc.prev {
			for _, c := range e.refs {
				sc.named[c.Hash] = true
			}
		}
	}
	for _, c := range fe.Chunks {
		if !sc.named[c.Hash] {
			sc.named[c.Hash] = true
			fresh = append(fresh, c.Hash)
		}
	}
	return fresh
}

// finish ends the scan: after a successful walk the record replaces the
// index file (no fsync: a torn file is an empty index), otherwise it is
// dropped. Two scans of one project that finish together each rename a
// whole file, and the last rename wins.
func (sc *indexScan) finish(save bool) {
	if sc == nil {
		return
	}
	ok := false
	if save {
		_, werr := sc.tmp.Write(sealIndex(sc.body))
		ok = werr == nil
	}
	if err := sc.tmp.Close(); err != nil {
		ok = false
	}
	if !ok || os.Rename(sc.tmp.Name(), sc.idx.path) != nil {
		_ = os.Remove(sc.tmp.Name()) // a cache: nothing to report
	}
}

func appendEntry(b []byte, fe FileEntry, k fileKey) []byte {
	b = binary.AppendUvarint(b, uint64(len(fe.Path)))
	b = append(b, fe.Path...)
	b = binary.AppendUvarint(b, k.dev)
	b = binary.AppendUvarint(b, k.ino)
	b = binary.AppendUvarint(b, uint64(k.size))
	b = binary.AppendUvarint(b, uint64(k.mode))
	b = binary.AppendVarint(b, k.mtime)
	b = binary.AppendVarint(b, k.ctime)
	b = binary.AppendUvarint(b, uint64(len(fe.Chunks)))
	for _, c := range fe.Chunks {
		b = append(b, c.Hash...)
		b = binary.AppendUvarint(b, uint64(c.Size))
	}
	return b
}

func sealIndex(body []byte) []byte {
	sum := sha256.Sum256(body)
	return append(body, sum[:]...)
}

// decodeIndex returns the entries of an index file by path, each marked
// trusted or not against the file's stamp, or nil unless the whole file
// is well formed: magic, version, checksum, every hash valid and every
// entry's chunk sizes summing to its size.
// Paths are only ever looked up, never opened, so they need no check.
func decodeIndex(data []byte) map[string]indexEntry {
	if len(data) < len(indexMagic)+sha256.Size {
		return nil
	}
	body := data[:len(data)-sha256.Size]
	if sum := sha256.Sum256(body); !bytes.HasPrefix(body, []byte(indexMagic)) || !bytes.Equal(sum[:], data[len(body):]) {
		return nil
	}
	// Paths and hashes are substrings of one copy of the body.
	r := &indexReader{b: body, s: string(body), off: len(indexMagic)}
	if r.uvarint() != indexVersion {
		return nil
	}
	stamp := r.varint()
	entries := make(map[string]indexEntry)
	for !r.bad && r.off < len(body) {
		rel := r.str(r.uvarint())
		e := indexEntry{key: fileKey{
			dev: r.uvarint(), ino: r.uvarint(), size: int64(r.uvarint()), mode: uint32(r.uvarint()),
			mtime: r.varint(), ctime: r.varint(),
		}}
		n := r.uvarint()
		if n > uint64(len(body)-r.off)/(2*sha256.Size+1) {
			return nil
		}
		if n > 0 {
			e.refs = make([]ChunkRef, n)
		}
		var sum int64
		for i := range e.refs {
			h, size := r.str(2*sha256.Size), r.uvarint()
			if !ValidHash(h) || size == 0 || size > MaxChunk {
				return nil
			}
			e.refs[i] = ChunkRef{Hash: h, Size: int64(size)}
			sum += int64(size)
		}
		if r.bad || sum != e.key.size {
			return nil
		}
		e.trusted = before(e.key.mtime, stamp) && before(e.key.ctime, stamp)
		entries[rel] = e
	}
	if r.bad {
		return nil
	}
	return entries
}

// before reports whether a recorded file time is strictly older than the
// stamp. A time with no sub-second part comes from a filesystem that
// keeps none (FAT keeps two seconds), so it is held against the stamp
// rounded down to two seconds: a write after the stamp can land there.
func before(t, stamp int64) bool {
	if t%int64(time.Second) == 0 {
		stamp -= stamp % int64(2*time.Second)
	}
	return t < stamp
}

// indexReader walks an index body; a read past its end sets bad.
type indexReader struct {
	b   []byte
	s   string // b as a string
	off int
	bad bool
}

func (r *indexReader) uvarint() uint64 {
	v, n := binary.Uvarint(r.b[r.off:])
	if n <= 0 {
		r.bad = true
		return 0
	}
	r.off += n
	return v
}

func (r *indexReader) varint() int64 {
	v, n := binary.Varint(r.b[r.off:])
	if n <= 0 {
		r.bad = true
		return 0
	}
	r.off += n
	return v
}

func (r *indexReader) str(n uint64) string {
	if r.bad || n > uint64(len(r.b)-r.off) {
		r.bad = true
		return ""
	}
	s := r.s[r.off : r.off+int(n)]
	r.off += int(n)
	return s
}
