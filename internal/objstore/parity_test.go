package objstore

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"
	"time"

	"rai/internal/cas"
	"rai/internal/clock"
)

// objects is core.Objects spelled out here (core imports this package):
// the method set *Store and *Client must share.
type objects interface {
	Put(ctx context.Context, bucket, key string, data []byte, ttl time.Duration) error
	Get(ctx context.Context, bucket, key string) ([]byte, error)
	GetReader(ctx context.Context, bucket, key string) (io.ReadCloser, int64, error)
	List(ctx context.Context, bucket, prefix string) ([]ObjectInfo, error)
	Delete(ctx context.Context, bucket, key string) error
	MissingChunks(ctx context.Context, m *cas.Manifest) ([]string, error)
	PutChunks(ctx context.Context, hashes []string, src cas.Source) (int64, error)
	GetChunks(ctx context.Context, hashes []string, each func(hash string, data []byte) error) error
}

// forgedSource answers every chunk request with the wrong bytes.
type forgedSource struct{}

func (forgedSource) Chunk(string) ([]byte, error) { return []byte("forged payload"), nil }

// TestStoreClientParity runs one scenario against the in-process engine
// and against the HTTP client: the two ends of the file-server port
// behave alike, including what the negotiate and chunk paths promise —
// present chunks have their last-use refreshed, a payload is
// hash-verified before it becomes addressable, and a bulk read hands
// back exactly the chunks asked for, in order, or fails before the first.
func TestStoreClientParity(t *testing.T) {
	const ttl = 4 * time.Hour
	impls := []struct {
		name string
		open func(t *testing.T, s *Store) objects
	}{
		{"Store", func(t *testing.T, s *Store) objects { return s }},
		{"Client", func(t *testing.T, s *Store) objects {
			srv := httptest.NewServer(Handler(s, nil))
			t.Cleanup(srv.Close)
			return NewClient(srv.URL, WithClientPolicy(retryPolicy()))
		}},
	}
	for _, impl := range impls {
		t.Run(impl.name, func(t *testing.T) {
			vc := clock.NewVirtual(t0)
			engine := New(WithClock(vc), WithDefaultTTL(ttl))
			o := impl.open(t, engine)

			// Objects: put, get, stream, list, delete.
			payload := bytes.Repeat([]byte("tarball "), 64)
			if err := o.Put(ctx, "uploads", "team/a", payload, 0); err != nil {
				t.Fatal(err)
			}
			if err := o.Put(ctx, "uploads", "team/b", []byte("b"), 0); err != nil {
				t.Fatal(err)
			}
			if got, err := o.Get(ctx, "uploads", "team/a"); err != nil || !bytes.Equal(got, payload) {
				t.Fatalf("Get = %d bytes, %v", len(got), err)
			}
			rc, size, err := o.GetReader(ctx, "uploads", "team/a")
			if err != nil || size != int64(len(payload)) {
				t.Fatalf("GetReader size = %d, %v", size, err)
			}
			streamed, _ := io.ReadAll(rc)
			rc.Close()
			if !bytes.Equal(streamed, payload) {
				t.Error("GetReader content differs")
			}
			infos, err := o.List(ctx, "uploads", "team/")
			if err != nil || len(infos) != 2 || infos[0].Key != "team/a" || infos[1].Key != "team/b" {
				t.Fatalf("List = %+v, %v", infos, err)
			}
			if err := o.Delete(ctx, "uploads", "team/b"); err != nil {
				t.Fatal(err)
			}
			if _, err := o.Get(ctx, "uploads", "team/b"); !errors.Is(err, ErrNoObject) {
				t.Errorf("Get after Delete = %v, want ErrNoObject", err)
			}

			// Chunks: everything is missing, then nothing, then exactly
			// what an edit added.
			files := map[string]string{
				"main.cu":   strings.Repeat("__global__ void kernel();\n", 2000),
				"build.yml": "commands:\n  build: make\n",
			}
			m, src := buildTestTree(t, files)
			missing, err := o.MissingChunks(ctx, m)
			if err != nil || !slices.Equal(missing, m.ChunkSet()) {
				t.Fatalf("fresh store missing %d of %d chunks, %v", len(missing), len(m.ChunkSet()), err)
			}
			if sent, err := o.PutChunks(ctx, missing, src); err != nil || sent != m.TotalBytes {
				t.Fatalf("PutChunks = %d of %d bytes, %v", sent, m.TotalBytes, err)
			}
			// The bulk read returns what went up: every chunk asked for, in
			// the order asked, the tree reassembling byte for byte.
			var order []string
			chunkData := map[string]string{}
			err = o.GetChunks(ctx, m.ChunkSet(), func(hash string, data []byte) error {
				order = append(order, hash)
				chunkData[hash] = string(data) // data is the callee's again after this call
				return nil
			})
			if err != nil || !slices.Equal(order, m.ChunkSet()) {
				t.Fatalf("GetChunks handed over %d of %d chunks in order, %v", len(order), len(m.ChunkSet()), err)
			}
			for _, f := range m.Files {
				var joined strings.Builder
				for _, ref := range f.Chunks {
					joined.WriteString(chunkData[ref.Hash])
				}
				if joined.String() != files[f.Path] {
					t.Errorf("%s: chunks reassemble to %d bytes, want %d", f.Path, joined.Len(), len(files[f.Path]))
				}
			}
			refused := errors.New("consumer refused")
			if err := o.GetChunks(ctx, m.ChunkSet(), func(string, []byte) error { return refused }); !errors.Is(err, refused) {
				t.Errorf("GetChunks with a refusing consumer = %v", err)
			}

			files["build.yml"] = "commands:\n  build: make -j4\n"
			m2, _ := buildTestTree(t, files)
			var added []string
			for _, h := range m2.ChunkSet() {
				if !slices.Contains(m.ChunkSet(), h) {
					added = append(added, h)
				}
			}
			if delta, err := o.MissingChunks(ctx, m2); err != nil || len(added) == 0 || !slices.Equal(delta, added) {
				t.Fatalf("edit negotiation missing %v, %v; want %v", delta, err, added)
			}
			// One absent chunk fails the whole read, before any is handed over.
			handed := 0
			err = o.GetChunks(ctx, m2.ChunkSet(), func(string, []byte) error { handed++; return nil })
			if !errors.Is(err, ErrNoObject) || !strings.Contains(err.Error(), added[0]) || handed != 0 {
				t.Errorf("GetChunks with %s absent = %v after %d chunks; want ErrNoObject naming it after none", added[0], err, handed)
			}

			// Last-use refresh: chunks negotiated at 3/4 TTL survive a sweep
			// at 5/4 TTL; the object nobody touched does not.
			vc.Advance(ttl * 3 / 4)
			if again, err := o.MissingChunks(ctx, m); err != nil || len(again) != 0 {
				t.Fatalf("renegotiation missing %d chunks, %v", len(again), err)
			}
			vc.Advance(ttl / 2)
			if n, err := engine.Sweep(ctx); err != nil || n != 1 {
				t.Errorf("Sweep removed %d, %v; want only uploads/team/a", n, err)
			}
			if again, err := o.MissingChunks(ctx, m); err != nil || len(again) != 0 {
				t.Errorf("refreshed chunks expired: %d missing, %v", len(again), err)
			}

			// A payload that hashes differently errors and leaves nothing
			// addressable under the name it claimed.
			if _, err := o.PutChunks(ctx, added, forgedSource{}); err == nil {
				t.Error("forged chunk accepted")
			}
			if _, err := o.Get(ctx, cas.Bucket, cas.ChunkKey(added[0])); !errors.Is(err, ErrNoObject) {
				t.Errorf("forged chunk addressable: %v", err)
			}
			if delta, err := o.MissingChunks(ctx, m2); err != nil || !slices.Equal(delta, added) {
				t.Errorf("after forged upload missing %v, %v; want %v", delta, err, added)
			}

			// A cancelled ctx is refused.
			dead, cancel := context.WithCancel(ctx)
			cancel()
			if err := o.Put(dead, "uploads", "team/c", []byte("c"), 0); !errors.Is(err, context.Canceled) {
				t.Errorf("Put on a cancelled ctx = %v", err)
			}
			if _, err := o.MissingChunks(dead, m); !errors.Is(err, context.Canceled) {
				t.Errorf("MissingChunks on a cancelled ctx = %v", err)
			}
			if err := o.GetChunks(dead, m.ChunkSet(), func(string, []byte) error { return nil }); !errors.Is(err, context.Canceled) {
				t.Errorf("GetChunks on a cancelled ctx = %v", err)
			}
		})
	}
}
