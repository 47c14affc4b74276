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

	"rai/internal/blobstore"
	"rai/internal/cas"
	"rai/internal/netx"
	"rai/internal/telemetry"
)

// Chunk endpoints (DESIGN.md §16). Upload is a negotiation plus one
// stream, download is one stream, and both streams carry the same frame:
//
//	POST /cas/negotiate   body = encoded manifest
//	                      → {"missing":[hash...]}   (chunks the server lacks)
//	POST /cas/chunks      body = frames: "<hash> <size>\n" + raw bytes
//	                      → {"stored":n,"bytes":b}
//	POST /cas/fetch       body = hashes, one per line
//	                      → frames, one per hash, in the order asked;
//	                        404 before the first frame if any is absent
//
// Present chunks get their TTL refreshed during negotiation and when
// they are fetched, so a chunk shared by active submissions never
// expires under them; the sweep that ages out rai-uploads ages rai-cas
// the same way. All three are auth-gated exactly like /o/ — manifests
// reveal tree shape, and chunk existence is an oracle, so none is
// anonymous.

// casNegotiateResponse is the body of a successful negotiation.
type casNegotiateResponse struct {
	Missing []string `json:"missing"`
}

// casChunksResponse acknowledges a chunk upload stream.
type casChunksResponse struct {
	Stored int   `json:"stored"`
	Bytes  int64 `json:"bytes"`
}

// casOp labels /cas/ requests for the shared request metrics.
func casOp(r *http.Request) string {
	switch {
	case strings.HasSuffix(r.URL.Path, "/negotiate"):
		return "cas-negotiate"
	case strings.HasSuffix(r.URL.Path, "/fetch"):
		return "cas-fetch"
	}
	return "cas-chunks"
}

// appendFrameHeader appends the line that precedes a chunk's payload in
// both directions.
func appendFrameHeader(dst []byte, hash string, size int64) []byte {
	dst = append(append(dst, hash...), ' ')
	return append(strconv.AppendInt(dst, size, 10), '\n')
}

// parseFrameHeader reads a frame's header line back, refusing a hash
// that is not a chunk address and a size no chunk can have.
func parseFrameHeader(line string) (hash string, size int64, ok bool) {
	hash, sizeStr, ok := strings.Cut(strings.TrimSuffix(line, "\n"), " ")
	size, err := strconv.ParseInt(sizeStr, 10, 64)
	return hash, size, ok && cas.ValidHash(hash) && err == nil && size > 0 && size <= cas.MaxChunk
}

// MissingChunks returns the manifest's chunks the store lacks,
// refreshing last-use of every chunk it already holds so a chunk shared
// across submissions outlives the TTL clock of its first upload.
func (s *Store) MissingChunks(ctx context.Context, m *cas.Manifest) ([]string, error) {
	missing := []string{}
	for _, hash := range m.ChunkSet() {
		switch err := s.be.Touch(ctx, cas.Bucket, cas.ChunkKey(hash)); {
		case err == nil:
		case errors.Is(err, ErrNoObject), errors.Is(err, ErrNoBucket):
			missing = append(missing, hash)
		default:
			return nil, err
		}
	}
	return missing, nil
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

// PutChunks stores the named chunks from src and returns the payload
// bytes stored.
func (s *Store) PutChunks(ctx context.Context, hashes []string, src cas.Source) (int64, error) {
	var total int64
	for _, hash := range hashes {
		data, err := src.Chunk(hash)
		if err != nil {
			return total, err
		}
		if err := s.putChunk(ctx, hash, bytes.NewReader(data), int64(len(data)), nil); err != nil {
			return total, err
		}
		total += int64(len(data))
	}
	return total, nil
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
// asked, refreshing its last-use; data is only valid during the call. A
// chunk the store lacks fails the read before the first call to each.
func (s *Store) GetChunks(ctx context.Context, hashes []string, each func(hash string, data []byte) error) error {
	if _, err := s.statChunks(ctx, hashes); err != nil {
		return err
	}
	buf := make([]byte, cas.MaxChunk)
	for _, hash := range hashes {
		rc, info, err := s.be.Open(ctx, cas.Bucket, cas.ChunkKey(hash))
		if err != nil {
			return err
		}
		if info.Size > cas.MaxChunk {
			rc.Close()
			return fmt.Errorf("objstore: chunk %s is %d bytes, over the %d a chunk can be", hash, info.Size, cas.MaxChunk)
		}
		_, err = io.ReadFull(rc, buf[:info.Size])
		rc.Close()
		if err != nil {
			return fmt.Errorf("objstore: reading chunk %s: %w", hash, err)
		}
		if err := each(hash, buf[:info.Size]); err != nil {
			return err
		}
	}
	return nil
}

// handleCASNegotiate answers a manifest with the chunk hashes the store
// is missing.
func (h *handlerState) handleCASNegotiate(s *Store, w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(io.LimitReader(r.Body, cas.MaxManifestBytes+1))
	if err != nil {
		http.Error(w, "reading manifest: "+err.Error(), http.StatusBadRequest)
		return
	}
	if len(body) > cas.MaxManifestBytes {
		http.Error(w, "manifest too large", http.StatusRequestEntityTooLarge)
		return
	}
	m, err := cas.Decode(body)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	missing, err := s.MissingChunks(r.Context(), m)
	if err != nil {
		writeStoreErr(w, err)
		return
	}
	absent := make(map[string]bool, len(missing))
	for _, hash := range missing {
		absent[hash] = true
	}
	for _, f := range m.Files {
		for _, c := range f.Chunks {
			if !absent[c.Hash] {
				absent[c.Hash] = true // count each distinct present chunk once
				h.casHits.Inc()
				h.casSavedBytes.Add(float64(c.Size))
			}
		}
	}
	h.casMisses.Add(float64(len(missing)))
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(casNegotiateResponse{Missing: missing})
}

// handleCASChunks ingests a framed chunk stream; each payload is
// verified against its declared hash before it becomes addressable.
func (h *handlerState) handleCASChunks(s *Store, w http.ResponseWriter, r *http.Request) {
	br := bufio.NewReader(http.MaxBytesReader(w, r.Body, h.maxBytes))
	scratch := make([]byte, 32<<10)
	var resp casChunksResponse
	for {
		line, err := br.ReadString('\n')
		if err == io.EOF && line == "" {
			break
		}
		if err != nil {
			http.Error(w, "reading chunk frame: "+err.Error(), http.StatusBadRequest)
			return
		}
		hash, size, ok := parseFrameHeader(line)
		if !ok {
			http.Error(w, fmt.Sprintf("bad chunk frame %q", strings.TrimSpace(line)), http.StatusBadRequest)
			return
		}
		if err := s.putChunk(r.Context(), hash, io.LimitReader(br, size), size, scratch); err != nil {
			var tooBig *http.MaxBytesError
			if errors.Is(err, io.ErrUnexpectedEOF) || errors.As(err, &tooBig) {
				http.Error(w, "short chunk payload: "+err.Error(), http.StatusBadRequest)
				return
			}
			writeStoreErr(w, err)
			return
		}
		h.streamIn.Add(float64(size))
		h.casStored.Inc()
		h.casStoredBytes.Add(float64(size))
		resp.Stored++
		resp.Bytes += size
	}
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(resp)
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

// MissingChunks negotiates a manifest: the returned hashes are the
// chunks the server does not yet hold.
func (c *Client) MissingChunks(ctx context.Context, m *cas.Manifest) ([]string, error) {
	enc := m.Encode()
	var resp casNegotiateResponse
	err := c.roundTrip(ctx, "cas-negotiate", http.StatusOK, func(ctx context.Context) (*http.Request, error) {
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.BaseURL+"/cas/negotiate", bytes.NewReader(enc))
		if err != nil {
			return nil, err
		}
		req.ContentLength = int64(len(enc))
		return req, nil
	}, func(r *http.Response) error {
		resp = casNegotiateResponse{}
		return json.NewDecoder(r.Body).Decode(&resp)
	})
	if err != nil {
		return nil, err
	}
	return resp.Missing, nil
}

// PutChunks streams the named chunks (fetched from src as the stream
// advances, so nothing is pinned in memory) and returns the payload
// bytes that went over the wire. Each retry attempt rebuilds the stream
// from src, so the full retry policy applies.
func (c *Client) PutChunks(ctx context.Context, hashes []string, src cas.Source) (int64, error) {
	if len(hashes) == 0 {
		return 0, nil
	}
	var resp casChunksResponse
	err := c.roundTrip(ctx, "cas-chunks", http.StatusOK, func(ctx context.Context) (*http.Request, error) {
		return http.NewRequestWithContext(ctx, http.MethodPost, c.BaseURL+"/cas/chunks", io.NopCloser(&chunkStream{src: src, hashes: hashes}))
	}, func(r *http.Response) error {
		resp = casChunksResponse{}
		return json.NewDecoder(r.Body).Decode(&resp)
	})
	if err != nil {
		return 0, err
	}
	return resp.Bytes, nil
}

// GetChunks fetches the named chunks in one request and hands each its
// payload in the order asked; data is only valid during the call. Every
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

// readChunkFrames reads the reply to a fetch of hashes: one frame per
// hash, in order, each at most cas.MaxChunk. What the server got wrong —
// a frame other than the one due, a body that ends short of what its
// frames promise — is permanent and names the chunk; a read error is the
// connection's and goes back bare, for the retry policy to judge.
func readChunkFrames(body io.Reader, hashes []string, each func(hash string, data []byte) error) error {
	br := bufio.NewReaderSize(body, cas.MaxChunk)
	buf := make([]byte, cas.MaxChunk)
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
		for n := 0; n < int(size); {
			m, err := br.Read(buf[n:size])
			n += m
			if err == io.EOF && n < int(size) {
				return netx.Permanent(fmt.Errorf("objstore: chunk %s: stream ended %d bytes into a %d-byte payload", hash, n, size))
			}
			if err != nil && n < int(size) {
				return err
			}
		}
		if err := each(hash, buf[:size]); err != nil {
			return netx.Permanent(err)
		}
	}
	return nil
}

// chunkStream frames chunks lazily: each Read pulls at most one chunk
// from the source, so memory stays O(MaxChunk) however large the tree.
type chunkStream struct {
	src    cas.Source
	hashes []string
	i      int
	buf    bytes.Buffer
}

func (cs *chunkStream) Read(p []byte) (int, error) {
	for cs.buf.Len() == 0 {
		if cs.i >= len(cs.hashes) {
			return 0, io.EOF
		}
		hash := cs.hashes[cs.i]
		cs.i++
		data, err := cs.src.Chunk(hash)
		if err != nil {
			// The tree changed under the upload; a retry would rebuild the
			// stream and fail identically, so mark it permanent.
			return 0, netx.Permanent(err)
		}
		cs.buf.Write(appendFrameHeader(cs.buf.AvailableBuffer(), hash, int64(len(data))))
		cs.buf.Write(data)
	}
	return cs.buf.Read(p)
}

// registerCASMetrics wires the rai_cas_* counters; absent telemetry they
// stay nil-safe no-ops like the rest of the handler counters.
func (h *handlerState) registerCASMetrics(reg *telemetry.Registry) {
	h.casHits = reg.Counter("rai_cas_chunk_hits_total", "negotiated chunks already present (deduplicated)")
	h.casMisses = reg.Counter("rai_cas_chunk_misses_total", "negotiated chunks the client had to upload")
	h.casSavedBytes = reg.Counter("rai_cas_saved_bytes_total", "upload bytes avoided by chunk reuse")
	h.casStored = reg.Counter("rai_cas_chunks_stored_total", "chunks ingested into the store")
	h.casStoredBytes = reg.Counter("rai_cas_stored_bytes_total", "chunk payload bytes ingested into the store")
}
