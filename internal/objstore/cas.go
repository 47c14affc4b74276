package objstore

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"rai/internal/blobstore"
	"rai/internal/cas"
	"rai/internal/netx"
	"rai/internal/telemetry"
)

// Chunk endpoints (DESIGN.md §16). A project goes up in one request,
// or two when the store lacks chunks the client did not send, and comes
// down in one; both directions carry the same frame:
//
//	POST /cas/manifest/{bucket}/{key}
//	                      body = chunk frames: "<hash> <size>\n" + raw
//	                        bytes, then the manifest frame:
//	                        "manifest <size>\n" + the encoded manifest,
//	                        under a Content-Length that sums them
//	                        (X-RAI-TTL-Seconds optional, as for PUT /o/)
//	                      → {"missing":[]} once the manifest is stored
//	                        under bucket/key: every chunk it names is held
//	                      → {"missing":[hash...]} otherwise, with nothing
//	                        stored under bucket/key; the client sends
//	                        those chunks and the manifest again
//	                      → 400 naming the chunk in X-RAI-Refused-Chunk
//	                        when a payload does not hash to its name
//	POST /cas/fetch       body = hashes, one per line
//	                      → frames, one per hash, in the order asked;
//	                        404 before the first frame if any is absent
//
// A reply that lists missing chunks is a 200: it is the protocol's
// second step, not an error. Chunks the store already holds get their
// TTL refreshed by every manifest that names them and when they are
// fetched, so a chunk shared by active submissions never expires under
// them; the sweep that ages out rai-uploads ages rai-cas the same way.
// Both routes are auth-gated exactly like /o/ — manifests reveal tree
// shape, and chunk existence is an oracle, so neither is anonymous.

// casManifestResponse is the body of a 200 from /cas/manifest/.
type casManifestResponse struct {
	Missing []string `json:"missing"`
}

// headerRefusedChunk names, on a 400 from /cas/manifest/, the chunk
// whose payload did not hash to its name.
const headerRefusedChunk = "X-RAI-Refused-Chunk"

// RefusedChunkError is an upload the store refused because a chunk's
// payload does not hash to the chunk's name: the bytes the client read
// are not the bytes it hashed, so the file changed in between.
type RefusedChunkError struct {
	Hash string
	Err  error
}

func (e *RefusedChunkError) Error() string {
	return fmt.Sprintf("objstore: chunk %s refused: %v", e.Hash, e.Err)
}

func (e *RefusedChunkError) Unwrap() error { return e.Err }

// errBadManifest marks a manifest that does not decode: the request's
// fault, answered 400.
var errBadManifest = errors.New("objstore: bad manifest")

// casOp labels /cas/ requests for the shared request metrics.
func casOp(r *http.Request) string {
	switch {
	case strings.HasPrefix(r.URL.Path, "/cas/manifest/"):
		return "cas-manifest"
	case r.URL.Path == "/cas/fetch":
		return "cas-fetch"
	}
	return "other"
}

// manifestFrame is the word that heads the last frame of an upload, in
// place of a chunk's hash.
const manifestFrame = "manifest"

// appendFrameHeader appends the line that precedes a chunk's payload in
// both directions.
func appendFrameHeader(dst []byte, hash string, size int64) []byte {
	dst = append(append(dst, hash...), ' ')
	return append(strconv.AppendInt(dst, size, 10), '\n')
}

// maxFrameHeader is the longest valid frame header: a 64-digit hash, a
// space, the digits of a size up to cas.MaxChunk, and the newline.
var maxFrameHeader = len(appendFrameHeader(nil, strings.Repeat("0", 64), cas.MaxChunk))

// parseManifestHeader reads the header of an upload's manifest frame,
// refusing a size no manifest can have.
func parseManifestHeader(line string) (size int64, ok bool) {
	word, sizeStr, ok := strings.Cut(strings.TrimSuffix(line, "\n"), " ")
	size, err := strconv.ParseInt(sizeStr, 10, 64)
	return size, ok && word == manifestFrame && err == nil && size > 0 && size <= cas.MaxManifestBytes
}

// parseFrameHeader reads a frame's header line back, refusing a hash
// that is not a chunk address and a size no chunk can have.
func parseFrameHeader(line string) (hash string, size int64, ok bool) {
	hash, sizeStr, ok := strings.Cut(strings.TrimSuffix(line, "\n"), " ")
	size, err := strconv.ParseInt(sizeStr, 10, 64)
	return hash, size, ok && cas.ValidHash(hash) && err == nil && size > 0 && size <= cas.MaxChunk
}

// commit is what committing a manifest found.
type commit struct {
	missing     []string // chunks the manifest names that the store lacks
	reused      int      // distinct chunks it held before the request
	reusedBytes int64
}

// commitManifest validates the encoded manifest and stores it under
// bucket/key with ttl if the store holds every chunk it names, or
// returns the chunks it lacks having stored nothing. Every chunk it
// holds has its last-use refreshed, so a chunk shared across submissions
// outlives the TTL clock of its first upload. sent holds the chunks the
// request just stored, which need no refresh; commitManifest adds to it.
func (s *Store) commitManifest(ctx context.Context, bucket, key string, enc []byte, ttl time.Duration, sent map[string]bool) (commit, error) {
	m, err := cas.Decode(enc)
	if err != nil {
		return commit{}, fmt.Errorf("%w: %w", errBadManifest, err)
	}
	cm := commit{missing: []string{}}
	seen := sent // each chunk is looked at once
	if seen == nil {
		seen = make(map[string]bool)
	}
	for _, f := range m.Files {
		for _, c := range f.Chunks {
			if seen[c.Hash] {
				continue
			}
			seen[c.Hash] = true
			switch err := s.be.Touch(ctx, cas.Bucket, cas.ChunkKey(c.Hash)); {
			case err == nil:
				cm.reused++
				cm.reusedBytes += c.Size
			case errors.Is(err, ErrNoObject), errors.Is(err, ErrNoBucket):
				cm.missing = append(cm.missing, c.Hash)
			default:
				return commit{}, err
			}
		}
	}
	if len(cm.missing) == 0 {
		_, err = s.put(ctx, bucket, key, bytes.NewReader(enc), blobstore.PutOptions{TTL: ttl, Size: int64(len(enc))})
	}
	return cm, err
}

// putChunk streams one chunk of size bytes from r into the store under
// its hash. The backend is told both: the size, so the stored payload is
// allocated once, and the hash as the ETag the stream must produce, so
// nothing becomes addressable under a name it does not hash to — by the
// one digest pass every write makes. scratch is the copy buffer, shared
// by the chunks of a stream.
func (s *Store) putChunk(ctx context.Context, hash string, r io.Reader, size int64, scratch []byte) error {
	w, err := s.be.Create(ctx, cas.Bucket, cas.ChunkKey(hash), blobstore.PutOptions{Size: size, ETag: hash})
	if err != nil {
		return err
	}
	n, err := io.CopyBuffer(w, r, scratch)
	if err == nil && n < size {
		err = fmt.Errorf("chunk %s: %d of %d bytes: %w", hash, n, size, io.ErrUnexpectedEOF)
	}
	if err != nil {
		w.Abort()
		return err
	}
	return w.Close()
}

// PutManifest stores the chunks hashes names, read from src, and then
// the encoded manifest under bucket/key with ttl, if the store then
// holds every chunk the manifest names. Otherwise it stores no manifest
// and returns the chunks it lacks, for the caller to send with the
// manifest again. A payload that does not hash to its name is refused
// with a *RefusedChunkError, and nothing is stored under that name.
func (s *Store) PutManifest(ctx context.Context, bucket, key string, manifest []byte, ttl time.Duration, hashes []string, src cas.Source) ([]string, error) {
	sent := make(map[string]bool, len(hashes))
	for _, hash := range hashes {
		data, err := src.Chunk(hash)
		if err != nil {
			return nil, err
		}
		if err := s.putChunk(ctx, hash, bytes.NewReader(data), int64(len(data)), nil); err != nil {
			if errors.Is(err, blobstore.ErrETag) {
				err = &RefusedChunkError{Hash: hash, Err: err}
			}
			return nil, err
		}
		sent[hash] = true
	}
	cm, err := s.commitManifest(ctx, bucket, key, manifest, ttl, sent)
	return cm.missing, err
}

// statChunks returns the size of each named chunk. A malformed hash or
// an absent chunk is an error here, before a bulk read has produced
// anything.
func (s *Store) statChunks(ctx context.Context, hashes []string) ([]int64, error) {
	sizes := make([]int64, len(hashes))
	for i, hash := range hashes {
		if !cas.ValidHash(hash) {
			return nil, fmt.Errorf("%w: chunk hash %q", ErrBadName, hash)
		}
		info, err := s.be.Stat(ctx, cas.Bucket, cas.ChunkKey(hash))
		if err != nil {
			return nil, err
		}
		sizes[i] = info.Size
	}
	return sizes, nil
}

// GetChunks hands each the payload of every named chunk, in the order
// asked, refreshing its last-use; each payload is a slice of its own,
// which each may keep. A chunk the store lacks fails the read before the
// first call to each.
func (s *Store) GetChunks(ctx context.Context, hashes []string, each func(hash string, data []byte) error) error {
	if _, err := s.statChunks(ctx, hashes); err != nil {
		return err
	}
	for _, hash := range hashes {
		rc, info, err := s.be.Open(ctx, cas.Bucket, cas.ChunkKey(hash))
		if err != nil {
			return err
		}
		if info.Size > cas.MaxChunk {
			rc.Close()
			return fmt.Errorf("objstore: chunk %s is %d bytes, over the %d a chunk can be", hash, info.Size, cas.MaxChunk)
		}
		data := make([]byte, info.Size)
		_, err = io.ReadFull(rc, data)
		rc.Close()
		if err != nil {
			return fmt.Errorf("objstore: reading chunk %s: %w", hash, err)
		}
		if err := each(hash, data); err != nil {
			return err
		}
	}
	return nil
}

// handleCASManifest ingests an upload: chunk frames, each verified
// against its declared hash before it becomes addressable — the one hash
// the write path makes — and then the manifest frame, which is committed
// under the request's bucket/key once every chunk it names is held. A
// payload that hashes otherwise is refused with a 400 naming it, answered
// only after the rest of the body is read: the client is still writing
// it, and a reply sent before would reach it as a reset connection
// instead.
func (h *handlerState) handleCASManifest(s *Store, w http.ResponseWriter, r *http.Request) {
	bucket, key, ok := strings.Cut(strings.TrimPrefix(r.URL.Path, "/cas/manifest/"), "/")
	if !ok || bucket == "" || key == "" {
		http.Error(w, "want /cas/manifest/{bucket}/{key}", http.StatusBadRequest)
		return
	}
	ttl, err := ttlHeader(r)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	br := bufio.NewReaderSize(http.MaxBytesReader(w, r.Body, MaxObjectBytes), 4<<10)
	var (
		scratch  []byte
		sent     map[string]bool
		manifest []byte
	)
	for manifest == nil {
		// ReadSlice, not ReadString: a header is read from the reader's
		// fixed buffer, and a line longer than any valid header is refused
		// whatever the body holds.
		line, err := br.ReadSlice('\n')
		if len(line) > maxFrameHeader {
			http.Error(w, fmt.Sprintf("frame header over %d bytes", maxFrameHeader), http.StatusBadRequest)
			return
		}
		if err == io.EOF && len(line) == 0 {
			http.Error(w, "upload ends without its manifest frame", http.StatusBadRequest)
			return
		}
		if err != nil {
			http.Error(w, "reading frame: "+err.Error(), http.StatusBadRequest)
			return
		}
		header := string(line)
		if size, ok := parseManifestHeader(header); ok {
			// The buffer grows with the bytes that arrive, not with the size
			// the header declares; MinRead spares the read that finds the
			// end a doubling.
			var b bytes.Buffer
			b.Grow(int(min(size, 1<<20)) + bytes.MinRead)
			if n, err := b.ReadFrom(io.LimitReader(br, size)); err != nil || n < size {
				http.Error(w, fmt.Sprintf("short manifest frame: %d of %d bytes (%v)", n, size, err), http.StatusBadRequest)
				return
			}
			manifest = b.Bytes()
			if _, err := br.ReadByte(); err != io.EOF {
				http.Error(w, "bytes after the manifest frame", http.StatusBadRequest)
				return
			}
			break
		}
		hash, size, ok := parseFrameHeader(header)
		if !ok {
			http.Error(w, fmt.Sprintf("bad frame %q", bytes.TrimSpace(line)), http.StatusBadRequest)
			return
		}
		if scratch == nil {
			scratch, sent = make([]byte, 32<<10), map[string]bool{}
		}
		if err := s.putChunk(r.Context(), hash, io.LimitReader(br, size), size, scratch); err != nil {
			var tooBig *http.MaxBytesError
			if errors.Is(err, io.ErrUnexpectedEOF) || errors.As(err, &tooBig) {
				http.Error(w, "short chunk payload: "+err.Error(), http.StatusBadRequest)
				return
			}
			if errors.Is(err, blobstore.ErrETag) {
				_, _ = io.Copy(io.Discard, br) // bounded by the MaxBytesReader
				w.Header().Set(headerRefusedChunk, hash)
				http.Error(w, err.Error(), http.StatusBadRequest)
				return
			}
			writeStoreErr(w, err)
			return
		}
		h.streamIn.Add(float64(size))
		h.casStored.Inc()
		h.casStoredBytes.Add(float64(size))
		sent[hash] = true
	}
	cm, err := s.commitManifest(r.Context(), bucket, key, manifest, ttl, sent)
	if err != nil {
		writeStoreErr(w, err)
		return
	}
	h.casHits.Add(float64(cm.reused))
	h.casSavedBytes.Add(float64(cm.reusedBytes))
	h.casMisses.Add(float64(len(cm.missing)))
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(casManifestResponse{Missing: cm.missing})
}

// handleCASFetch streams the named chunks back as frames. Sizes are
// read first, which makes an absent chunk a clean 404 and gives the
// reply a Content-Length; each payload then goes from the backend's
// reader into one buffered writer, so serving a tree allocates the
// buffer and not the tree.
func (h *handlerState) handleCASFetch(s *Store, w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(io.LimitReader(r.Body, cas.MaxManifestBytes+1))
	if err != nil {
		http.Error(w, "reading chunk list: "+err.Error(), http.StatusBadRequest)
		return
	}
	if len(body) > cas.MaxManifestBytes {
		http.Error(w, "chunk list too large", http.StatusRequestEntityTooLarge)
		return
	}
	hashes := strings.Split(strings.TrimSuffix(string(body), "\n"), "\n")
	sizes, err := s.statChunks(r.Context(), hashes)
	if err != nil {
		writeStoreErr(w, err)
		return
	}
	var hdr []byte
	var total int64
	for i, hash := range hashes {
		hdr = appendFrameHeader(hdr[:0], hash, sizes[i])
		total += int64(len(hdr)) + sizes[i]
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Length", strconv.FormatInt(total, 10))
	bw := bufio.NewWriterSize(w, 64<<10)
	for i, hash := range hashes {
		// A chunk swept since the size pass, like a dead client, is found
		// with the headers gone: returning leaves the body short of its
		// Content-Length, which the client sees as a broken transfer.
		rc, _, err := s.be.Open(r.Context(), cas.Bucket, cas.ChunkKey(hash))
		if err != nil {
			return
		}
		_, _ = bw.Write(appendFrameHeader(hdr[:0], hash, sizes[i]))
		n, err := io.Copy(bw, rc)
		rc.Close()
		h.streamOut.Add(float64(n))
		if err != nil || n != sizes[i] {
			return
		}
	}
	_ = bw.Flush()
}

// ---- client side ----

// PutManifest sends, in one request, the chunks hashes names — read
// from src as the body is written, so nothing is pinned in memory — and
// then the encoded manifest, which the server stores under bucket/key
// with ttl once it holds every chunk the manifest names. Otherwise the
// server stores no manifest and the chunks it lacks come back, for the
// caller to send with the manifest again. The request declares its
// length, summed from the sizes src records, and each retry attempt
// rebuilds the body from src. A chunk the server refuses because its
// payload does not hash to its name fails the call with a
// *RefusedChunkError.
func (c *Client) PutManifest(ctx context.Context, bucket, key string, manifest []byte, ttl time.Duration, hashes []string, src cas.Source) ([]string, error) {
	length := int64(len(appendManifestHeader(nil, len(manifest))) + len(manifest))
	for _, hash := range hashes {
		size, ok := src.Size(hash)
		if !ok {
			return nil, fmt.Errorf("objstore: chunk %s is not in the tree being uploaded", hash)
		}
		length += int64(len(appendFrameHeader(nil, hash, size))) + size
	}
	var resp casManifestResponse
	err := c.roundTrip(ctx, "cas-manifest", http.StatusOK, func(ctx context.Context) (*http.Request, error) {
		body := &uploadStream{src: src, hashes: hashes, manifest: manifest}
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.BaseURL+"/cas/manifest/"+bucket+"/"+key, io.NopCloser(body))
		if err != nil {
			return nil, err
		}
		req.ContentLength = length
		if ttl > 0 {
			req.Header.Set(headerTTL, strconv.FormatInt(int64(ttl/time.Second), 10))
		}
		return req, nil
	}, func(r *http.Response) error {
		resp = casManifestResponse{}
		return json.NewDecoder(r.Body).Decode(&resp)
	})
	if err != nil {
		return nil, err
	}
	return resp.Missing, nil
}

// GetChunks fetches the named chunks in one request and hands each its
// payload in the order asked, as a slice of its own that each may keep.
// Every
// frame is checked against the hash that was due before its payload is
// read. A broken connection is retried under the policy and the retry
// starts over from the first hash, so each must tolerate seeing a chunk
// again; a frame that is not the one due, and an error from each, end
// the call at once.
func (c *Client) GetChunks(ctx context.Context, hashes []string, each func(hash string, data []byte) error) error {
	if len(hashes) == 0 {
		return nil
	}
	list := strings.Join(hashes, "\n")
	return c.roundTrip(ctx, "cas-fetch", http.StatusOK, func(ctx context.Context) (*http.Request, error) {
		return http.NewRequestWithContext(ctx, http.MethodPost, c.BaseURL+"/cas/fetch", strings.NewReader(list))
	}, func(r *http.Response) error {
		return readChunkFrames(r.Body, hashes, each)
	})
}

// frameReaders holds the cas.MaxChunk-sized readers readChunkFrames
// reads through, so that a fetch does not allocate 64 KiB of buffer
// however few bytes it brings. Nothing read is handed out of the
// buffer: each payload is copied into a slice of its own.
var frameReaders = sync.Pool{New: func() any { return bufio.NewReaderSize(nil, cas.MaxChunk) }}

// readChunkFrames reads the reply to a fetch of hashes: one frame per
// hash, in order, each at most cas.MaxChunk, each payload read into a
// slice of its exact size that is handed over. What the server got wrong —
// a frame other than the one due, a body that ends short of what its
// frames promise — is permanent and names the chunk; a read error is the
// connection's and goes back bare, for the retry policy to judge.
func readChunkFrames(body io.Reader, hashes []string, each func(hash string, data []byte) error) error {
	br := frameReaders.Get().(*bufio.Reader)
	br.Reset(body)
	defer func() {
		br.Reset(nil) // drop body, so the pool does not keep it alive
		frameReaders.Put(br)
	}()
	for i, want := range hashes {
		// ReadSlice, not ReadString: a header line is bounded by the buffer
		// whatever the server sends.
		line, err := br.ReadSlice('\n')
		if err == io.EOF {
			return netx.Permanent(fmt.Errorf("objstore: chunk stream ended after %d of %d chunks, before %s", i, len(hashes), want))
		}
		if err != nil && err != bufio.ErrBufferFull {
			return err
		}
		hash, size, ok := parseFrameHeader(string(line))
		if !ok {
			return netx.Permanent(fmt.Errorf("objstore: bad chunk frame %.80q where %s was due", line, want))
		}
		if hash != want {
			return netx.Permanent(fmt.Errorf("objstore: chunk %s arrived where %s was due", hash, want))
		}
		// io.ReadFull would fold a body that ended into the same
		// ErrUnexpectedEOF a cut connection reports; they differ here.
		data := make([]byte, size)
		for n := 0; n < int(size); {
			m, err := br.Read(data[n:])
			n += m
			if err == io.EOF && n < int(size) {
				return netx.Permanent(fmt.Errorf("objstore: chunk %s: stream ended %d bytes into a %d-byte payload", hash, n, size))
			}
			if err != nil && n < int(size) {
				return err
			}
		}
		if err := each(hash, data); err != nil {
			return netx.Permanent(err)
		}
	}
	return nil
}

// appendManifestHeader appends the line that precedes an upload's
// manifest.
func appendManifestHeader(dst []byte, size int) []byte {
	dst = append(dst, manifestFrame+" "...)
	return append(strconv.AppendInt(dst, int64(size), 10), '\n')
}

// uploadStream is the body of an upload. It frames chunks lazily,
// pulling a chunk from the source only once the one before has been
// read, so memory stays O(MaxChunk) however large the tree, and ends
// with the manifest frame. Each Read fills p across frame boundaries, so
// the transport writes in large pieces.
type uploadStream struct {
	src      cas.Source
	hashes   []string // the chunks not yet pulled
	manifest []byte   // the last frame's payload, until it is framed
	hdr      []byte   // the unread rest of the current frame's header
	data     []byte   // the unread rest of the current frame's payload
	hdrBuf   [96]byte // over maxFrameHeader
}

func (cs *uploadStream) Read(p []byte) (int, error) {
	n := 0
	for n < len(p) {
		if len(cs.hdr) == 0 && len(cs.data) == 0 {
			if len(cs.hashes) == 0 {
				if cs.manifest == nil {
					return n, io.EOF
				}
				cs.hdr = appendManifestHeader(cs.hdrBuf[:0], len(cs.manifest))
				cs.data, cs.manifest = cs.manifest, nil
				continue
			}
			hash := cs.hashes[0]
			cs.hashes = cs.hashes[1:]
			data, err := cs.src.Chunk(hash)
			if err != nil {
				// The tree changed under the upload; a retry would rebuild the
				// stream and fail identically, so mark it permanent.
				return n, netx.Permanent(err)
			}
			cs.hdr = appendFrameHeader(cs.hdrBuf[:0], hash, int64(len(data)))
			cs.data = data
		}
		m := copy(p[n:], cs.hdr)
		cs.hdr = cs.hdr[m:]
		n += m
		m = copy(p[n:], cs.data)
		cs.data = cs.data[m:]
		n += m
	}
	return n, nil
}

// registerCASMetrics wires the rai_cas_* counters; absent telemetry they
// stay nil-safe no-ops like the rest of the handler counters.
func (h *handlerState) registerCASMetrics(reg *telemetry.Registry) {
	h.casHits = reg.Counter("rai_cas_chunk_hits_total", "chunks an uploaded manifest names that were already present (deduplicated)")
	h.casMisses = reg.Counter("rai_cas_chunk_misses_total", "chunks an uploaded manifest names that the store lacked and was not sent")
	h.casSavedBytes = reg.Counter("rai_cas_saved_bytes_total", "upload bytes avoided by chunk reuse")
	h.casStored = reg.Counter("rai_cas_chunks_stored_total", "chunks ingested into the store")
	h.casStoredBytes = reg.Counter("rai_cas_stored_bytes_total", "chunk payload bytes ingested into the store")
}
