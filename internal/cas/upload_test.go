package cas_test

import (
	"context"
	"errors"
	"io"
	"math/rand"
	"net/http/httptest"
	"os"
	"path"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"rai/internal/auth"
	"rai/internal/broker"
	"rai/internal/build"
	"rai/internal/cas"
	"rai/internal/core"
	"rai/internal/objstore"
)

// TestStaleIndexFailsUpload: the client hashes a file once, when it scans
// it, and the store hashes a chunk once, as it lands, refusing a payload
// that does not hash to its name. So when the bytes the Source reads for
// upload are not the bytes the manifest names — an index entry gone
// stale, a file rewritten between the scan and the upload — the upload
// fails naming the file, nothing becomes addressable under a hash its
// bytes do not have, and neither the manifest is committed nor the job
// sent. Neither scan reads a file the index's record does not name, so
// the first upload sends the manifest alone, the store answers with the
// chunks it lacks, and the second upload, carrying them, is refused.
// Both through the in-process store and through the HTTP client, with
// more than 256 KiB of the stream still to come after the bad chunk: the
// server must read it before it answers, or the client sees a reset
// connection instead of the refusal.
func TestStaleIndexFailsUpload(t *testing.T) {
	seeded := func(seed int64, n int) []byte {
		b := make([]byte, n)
		rand.New(rand.NewSource(seed)).Read(b)
		return b
	}
	held, other, tail := seeded(1, 64<<10), seeded(2, 64<<10), seeded(3, 512<<10)
	scans := []struct {
		name string
		scan func(t *testing.T, root string) (*cas.Manifest, cas.Source)
	}{
		{"stale index entry", func(t *testing.T, root string) (*cas.Manifest, cas.Source) {
			m, src, err := cas.Build(os.DirFS(root), cas.StaleIndex(t, root, "a.bin", other))
			if err != nil {
				t.Fatal(err)
			}
			return m, src
		}},
		{"file rewritten after the scan", func(t *testing.T, root string) (*cas.Manifest, cas.Source) {
			m, src, err := cas.Build(os.DirFS(root), nil)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(root, "a.bin"), other, 0o644); err != nil {
				t.Fatal(err)
			}
			return m, src
		}},
	}
	ends := []struct {
		name string
		open func(t *testing.T, s *objstore.Store) core.Objects
	}{
		{"Store", func(t *testing.T, s *objstore.Store) core.Objects { return s }},
		{"Client", func(t *testing.T, s *objstore.Store) core.Objects {
			srv := httptest.NewServer(objstore.Handler(s, nil))
			t.Cleanup(srv.Close)
			return objstore.NewClient(srv.URL)
		}},
	}
	for _, sc := range scans {
		for _, end := range ends {
			t.Run(sc.name+"/"+end.name, func(t *testing.T) {
				root := t.TempDir()
				for name, data := range map[string][]byte{"a.bin": held, "z.bin": tail} {
					if err := os.WriteFile(filepath.Join(root, name), data, 0o644); err != nil {
						t.Fatal(err)
					}
				}
				m, src := sc.scan(t, root)
				store := objstore.New()
				objects := &commitLog{Objects: end.open(t, store)}
				queue := &publishLog{}
				c := &core.Client{Creds: auth.Credentials{UserName: "team"}, Queue: queue, Objects: objects, Stdout: io.Discard}

				_, err := c.Submit(context.Background(), core.KindRun, build.Default(), m, src)
				if err == nil || !strings.Contains(err.Error(), "a.bin changed while uploading") {
					t.Fatalf("upload of a changed file: err = %v, want one naming a.bin", err)
				}
				var refused *objstore.RefusedChunkError
				if !errors.As(err, &refused) {
					t.Fatalf("err = %v, want the store's refusal", err)
				}
				var after int64
				for i, f := range m.Files {
					for _, c := range f.Chunks {
						if i > 0 || c.Hash != refused.Hash {
							after += c.Size
						}
					}
				}
				if m.Files[0].Chunks[0].Hash != refused.Hash || after <= 256<<10 {
					t.Fatalf("fixture: refused %s with %d bytes of stream after it", refused.Hash, after)
				}
				if objects.calls != 2 || len(objects.commits) != 0 || queue.calls != 0 {
					t.Errorf("after a refused chunk: %d uploads committing %v, queue called %d times; want the second upload refused", objects.calls, objects.commits, queue.calls)
				}
				for _, hash := range m.ChunkSet() {
					key := cas.ChunkKey(hash)
					data, err := store.Get(context.Background(), cas.Bucket, key)
					if errors.Is(err, objstore.ErrNoObject) || errors.Is(err, objstore.ErrNoBucket) {
						continue
					}
					if err != nil || cas.HashHex(data) != path.Base(key) {
						t.Errorf("%s addressable holding bytes that hash otherwise (%v)", key, err)
					}
				}
			})
		}
	}
}

// commitLog counts the uploads made through it and records the
// manifests they committed.
type commitLog struct {
	core.Objects
	calls   int
	commits []string
}

func (l *commitLog) PutManifest(ctx context.Context, bucket, key string, manifest []byte, ttl time.Duration, hashes []string, src cas.Source) ([]string, error) {
	l.calls++
	missing, err := l.Objects.PutManifest(ctx, bucket, key, manifest, ttl, hashes, src)
	if err == nil && len(missing) == 0 {
		l.commits = append(l.commits, bucket+"/"+key)
	}
	return missing, err
}

// publishLog is a queue that counts its calls and serves none.
type publishLog struct{ calls int }

func (q *publishLog) Publish(context.Context, string, []byte) (uint64, error) {
	q.calls++
	return 0, errors.New("publishLog: no broker")
}

func (q *publishLog) Subscribe(context.Context, string, string, int) (broker.Consumer, error) {
	q.calls++
	return nil, errors.New("publishLog: no broker")
}
