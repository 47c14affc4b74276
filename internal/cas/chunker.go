// Package cas implements the content-addressed store behind delta
// resubmission (DESIGN.md §16): project files are split into
// content-defined chunks, each chunk is addressed by its SHA-256, and a
// submission becomes a *manifest* — an ordered file → chunk-hash list —
// instead of a monolithic archive. Because chunk boundaries are chosen
// by a rolling hash over content (FastCDC-style), an edit to one file
// disturbs only the chunks it touches: resubmitting a near-identical
// tree re-uploads roughly the edited bytes, not the tree.
//
// The package is deliberately storage-agnostic: chunks live as ordinary
// objects in a dedicated bucket (Bucket) of whatever blobstore backend
// the object store mounts there, so TTL sweeping, quotas, and watch
// events all apply unchanged.
package cas

import (
	"crypto/sha256"
	"encoding/hex"
)

// Chunking parameters. The averages are tuned for course projects:
// source trees of a few kilobytes to a few megabytes where the unit of
// change is an edited source file. Smaller chunks would bloat manifests;
// larger ones would make a one-line edit re-upload most of a file.
const (
	MinChunk = 2 << 10  // never cut before this many bytes
	AvgChunk = 8 << 10  // target average chunk size
	MaxChunk = 64 << 10 // force a cut at this many bytes
)

// Bucket is the dedicated bucket chunks are stored under, on the same
// backend as every other bucket.
const Bucket = "rai-cas"

// HashHex returns the lowercase hex SHA-256 of data — the chunk address.
func HashHex(data []byte) string {
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}

// ValidHash reports whether s has the form of a chunk address: 64
// lowercase hex digits. Hashes arrive in student manifests and peer
// frames and become object keys (ChunkKey), so every parser checks this
// before a hash gets near a path.
func ValidHash(s string) bool {
	if len(s) != 2*sha256.Size {
		return false
	}
	for i := 0; i < len(s); i++ {
		if c := s[i]; (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// ChunkKey maps a chunk hash to its object key inside Bucket. A two-hex
// fan-out directory keeps per-prefix listings small on disk backends.
func ChunkKey(hashHex string) string {
	if len(hashHex) < 2 {
		return "sha256/" + hashHex
	}
	return "sha256/" + hashHex[:2] + "/" + hashHex
}

// gear is the 256-entry random table driving the rolling hash. It is
// generated at init from a fixed splitmix64 seed so chunk boundaries —
// and therefore chunk hashes and tree hashes — are identical across
// every client, worker, and release.
var gear [256]uint64

func init() {
	// splitmix64 with a fixed seed; see Steele et al., "Fast Splittable
	// Pseudorandom Number Generators".
	state := uint64(0x5261494341533130) // "RAICAS10"
	for i := range gear {
		state += 0x9e3779b97f4a7c15
		z := state
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		gear[i] = z ^ (z >> 31)
	}
}

// FastCDC-style normalized chunking uses two masks: a stricter one
// (more bits, fewer matches) before the average point to discourage
// short chunks, and a looser one after it to encourage cutting before
// MaxChunk. AvgChunk is 8 KiB = 2^13, so the centre mask has 13 bits.
const (
	maskStrict = uint64(0x0000_0000_0000_7fff) // 15 bits: avg*4 before centre
	maskLoose  = uint64(0x0000_0000_0000_07ff) // 11 bits: avg/4 after centre
)

// cutPoint returns the length of the next chunk starting at data[0:].
// It always returns a value in [1, len(data)] for non-empty input.
func cutPoint(data []byte) int {
	n := len(data)
	if n <= MinChunk {
		return n
	}
	max := n
	if max > MaxChunk {
		max = MaxChunk
	}
	centre := AvgChunk
	if centre > max {
		centre = max
	}
	var h uint64
	i := MinChunk
	// The hash warms up over the bytes before MinChunk so boundaries
	// depend on content, not position.
	for j := i - 64; j < i; j++ {
		if j >= 0 {
			h = (h << 1) + gear[data[j]]
		}
	}
	for ; i < centre; i++ {
		h = (h << 1) + gear[data[i]]
		if h&maskStrict == 0 {
			return i + 1
		}
	}
	for ; i < max; i++ {
		h = (h << 1) + gear[data[i]]
		if h&maskLoose == 0 {
			return i + 1
		}
	}
	return max
}

// Split cuts data into content-defined chunks. Concatenating the
// returned slices reproduces data exactly; each slice aliases data (no
// copies). Empty input yields no chunks.
func Split(data []byte) [][]byte {
	var out [][]byte
	for len(data) > 0 {
		n := cutPoint(data)
		out = append(out, data[:n:n])
		data = data[n:]
	}
	return out
}
