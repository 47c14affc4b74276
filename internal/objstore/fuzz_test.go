package objstore

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path"
	"strings"
	"sync"
	"testing"
	"testing/iotest"

	"rai/internal/blobstore"
	"rai/internal/cas"
)

// createLog records the key of every chunk written to the backend, so
// a test can read back all that a request could have made addressable.
type createLog struct {
	blobstore.Backend
	mu   sync.Mutex
	keys []string
}

func (l *createLog) Create(ctx context.Context, bucket, key string, opts blobstore.PutOptions) (blobstore.Writer, error) {
	if bucket == cas.Bucket {
		l.mu.Lock()
		l.keys = append(l.keys, key)
		l.mu.Unlock()
	}
	return l.Backend.Create(ctx, bucket, key, opts)
}

// frameFixture is two chunks and the frames of a reply carrying them.
func frameFixture() (a, b, ha, hb string, frame func(hash string, size int, payload string) string) {
	a, b = strings.Repeat("a", 3000), strings.Repeat("b", 4000)
	ha, hb = cas.HashHex([]byte(a)), cas.HashHex([]byte(b))
	frame = func(hash string, size int, payload string) string {
		return fmt.Sprintf("%s %d\n%s", hash, size, payload)
	}
	return a, b, ha, hb, frame
}

// FuzzReadChunkFrames feeds arbitrary reply bodies to the client's frame
// parser against a fixed list of two hashes. Whatever the server sends,
// the parser must not panic, each must only ever be handed the hash that
// was due with at most a chunk's worth of bytes, and a reply accepted
// whole must have handed over every hash.
func FuzzReadChunkFrames(f *testing.F) {
	a, b, ha, hb, frame := frameFixture()
	for _, reply := range []string{
		frame(ha, 3000, a) + frame(hb, 4000, b),
		frame(hb, 4000, b) + frame(ha, 3000, a),
		frame(ha, 3000, a) + frame(ha, 3000, a),
		frame(ha, cas.MaxChunk+1, a),
		frame(ha, 3000, a) + frame(hb, 4000, b[:1000]),
		frame(ha, 3000, a),
		frame(ha, -1, "") + frame(hb, 0, ""),
		"<html>proxy error</html>\n",
		strings.Repeat("f", cas.MaxChunk+10),
		"",
	} {
		f.Add([]byte(reply))
	}
	hashes := []string{ha, hb}
	f.Fuzz(func(t *testing.T, body []byte) {
		n := 0
		err := readChunkFrames(bytes.NewReader(body), hashes, func(hash string, data []byte) error {
			if n >= len(hashes) || hash != hashes[n] {
				t.Fatalf("handed %s as chunk %d of %v", hash, n, hashes)
			}
			if len(data) > cas.MaxChunk {
				t.Fatalf("handed %d bytes under %s", len(data), hash)
			}
			n++
			return nil
		})
		if err == nil && n != len(hashes) {
			t.Fatalf("reply accepted after %d of %d chunks", n, len(hashes))
		}
	})
}

// casRoutes are the chunk routes FuzzCASHandler posts to, picked by the
// input's first byte.
var casRoutes = []string{"/cas/manifest/uploads/team/j1", "/cas/fetch"}

// FuzzCASHandler posts arbitrary bodies to every chunk route of a store
// holding two chunks, each under a declared Content-Length that may
// disagree with it (negative: the body's own length). The body the
// handler reads is what net/http's server makes of such a request: cut
// at the declared length when that is short, ending in
// io.ErrUnexpectedEOF when it is long. Whatever the body, the handler
// must not panic, must answer a bad request with a 4xx rather than a
// 5xx, must leave nothing addressable under a hash its bytes do not
// hash to, and must commit a manifest only if it decodes and every
// chunk it names is held.
func FuzzCASHandler(f *testing.F) {
	a, b, ha, hb, frame := frameFixture()
	c := strings.Repeat("c", 5000)
	hc := cas.HashHex([]byte(c))
	manifest := func(refs ...cas.ChunkRef) string {
		m := &cas.Manifest{}
		for i, ref := range refs {
			m.Files = append(m.Files, cas.FileEntry{Path: fmt.Sprintf("f%d", i), Size: ref.Size, Chunks: []cas.ChunkRef{ref}})
			m.TotalBytes += ref.Size
		}
		m.Seal()
		enc := m.Encode()
		return string(appendManifestHeader(nil, len(enc))) + string(enc)
	}
	held := manifest(cas.ChunkRef{Hash: ha, Size: 3000}, cas.ChunkRef{Hash: hb, Size: 4000})
	withC := manifest(cas.ChunkRef{Hash: ha, Size: 3000}, cas.ChunkRef{Hash: hc, Size: 5000})
	// Upload bodies: chunk frames then the manifest frame; the manifest
	// alone; a chunk it names that is neither held nor sent; a forged
	// payload; a bad manifest; no manifest frame; bytes after it; a
	// header that never ends.
	bad := cas.Magic + `{"tree_hash":"beef"}`
	f.Add(byte(0), []byte(frame(hc, 5000, c)+withC), int64(-1))
	f.Add(byte(0), []byte(held), int64(-1))
	f.Add(byte(0), []byte(withC), int64(-1))
	f.Add(byte(0), []byte(frame(ha, 16, "forged payload!!")+held), int64(-1))
	f.Add(byte(0), []byte(string(appendManifestHeader(nil, len(bad)))+bad), int64(-1))
	f.Add(byte(0), []byte(frame(ha, 3000, a)+frame(hb, 4000, b)), int64(-1))
	f.Add(byte(0), []byte(held+frame(hc, 5000, c)), int64(-1))
	f.Add(byte(0), []byte(frame(cas.HashHex([]byte("d")), 1, "d")+frame(hb, 4000, b[:10])), int64(-1))
	f.Add(byte(0), bytes.Repeat([]byte("a"), 2*cas.MaxChunk), int64(-1)) // no header ends
	f.Add(byte(1), []byte(ha+"\n"+hb), int64(-1))
	f.Add(byte(1), []byte(ha+"\n\n"+strings.Repeat("0", 64)), int64(-1))
	f.Add(byte(1), []byte(strings.Repeat("/.", 17)+"//../../rai-uploads/alice/j1/k"), int64(-1))
	// Content-Length against the frames: short inside the second
	// payload, short at the frame boundary, short inside the manifest,
	// long by a byte and by a frame.
	two := frame(ha, 3000, a) + frame(hc, 5000, c) + withC
	f.Add(byte(0), []byte(two), int64(len(frame(ha, 3000, a))+100))
	f.Add(byte(0), []byte(two), int64(len(frame(ha, 3000, a))))
	f.Add(byte(0), []byte(two), int64(len(two)-10))
	f.Add(byte(0), []byte(two), int64(len(two)+1))
	f.Add(byte(0), []byte(two), int64(len(two)+len(frame(hb, 4000, b))))
	f.Fuzz(func(t *testing.T, route byte, body []byte, declared int64) {
		created := &createLog{Backend: blobstore.NewMemory()}
		s := NewWithBackend(created)
		seed := chunkMap{ha: []byte(a), hb: []byte(b)}
		if missing, err := s.PutManifest(ctx, "uploads", "seed", []byte(held[strings.IndexByte(held, '\n')+1:]), 0, []string{ha, hb}, seed); err != nil || len(missing) != 0 {
			t.Fatal(missing, err)
		}
		p := casRoutes[int(route)%len(casRoutes)]
		req := httptest.NewRequest(http.MethodPost, p, bytes.NewReader(body))
		switch n := int64(len(body)); {
		case declared >= 0 && declared < n:
			req.Body = io.NopCloser(io.LimitReader(bytes.NewReader(body), declared))
			req.ContentLength = declared
		case declared > n:
			req.Body = io.NopCloser(io.MultiReader(bytes.NewReader(body), iotest.ErrReader(io.ErrUnexpectedEOF)))
			req.ContentLength = declared
		}
		rec := httptest.NewRecorder()
		Handler(s, nil).ServeHTTP(rec, req)
		if rec.Code >= 500 {
			t.Fatalf("POST %s %q (Content-Length %d) = %d: %s", p, body, req.ContentLength, rec.Code, rec.Body)
		}
		for _, key := range created.keys {
			data, err := s.Get(ctx, cas.Bucket, key)
			if errors.Is(err, ErrNoObject) {
				continue // refused: never committed
			}
			if err != nil {
				t.Fatal(err)
			}
			if got := cas.HashHex(data); got != path.Base(key) {
				t.Fatalf("POST %s left %d bytes hashing to %s addressable as %s", p, len(data), got, key)
			}
		}
		enc, err := s.Get(ctx, "uploads", "team/j1")
		if errors.Is(err, ErrNoObject) {
			return
		}
		if err != nil {
			t.Fatal(err)
		}
		m, err := cas.Decode(enc)
		if err != nil {
			t.Fatalf("POST %s committed a manifest that does not decode: %v", p, err)
		}
		for _, hash := range m.ChunkSet() {
			if _, err := s.Head(ctx, cas.Bucket, cas.ChunkKey(hash)); err != nil {
				t.Fatalf("POST %s committed a manifest naming chunk %s, which the store lacks: %v", p, hash, err)
			}
		}
	})
}

// chunkMap is a cas.Source over payloads held in memory.
type chunkMap map[string][]byte

func (c chunkMap) Size(hash string) (int64, bool) {
	data, ok := c[hash]
	return int64(len(data)), ok
}

func (c chunkMap) Fresh() []string { return nil }

func (c chunkMap) Chunk(hash string) ([]byte, error) {
	data, ok := c[hash]
	if !ok {
		return nil, fmt.Errorf("no chunk %s", hash)
	}
	return data, nil
}
