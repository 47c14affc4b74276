package core

import (
	"bytes"
	"context"
	"fmt"
	"strings"
	"testing"
	"time"

	"rai/internal/archivex"
	"rai/internal/build"
	"rai/internal/cas"
	"rai/internal/cnn"
	"rai/internal/project"
	"rai/internal/vfs"
)

// projectTree renders a project into a fresh vfs — padded with a
// deterministic multi-chunk weights file so the tree is big enough for
// delta ratios to mean something — and returns it with its manifest and
// chunk source.
func projectTree(t *testing.T, spec project.Spec) (*vfs.FS, tree) {
	t.Helper()
	fs := vfs.New()
	if err := project.WriteTo(fs, "/p", spec); err != nil {
		t.Fatal(err)
	}
	var w bytes.Buffer
	for i := 0; w.Len() < 4*cas.AvgChunk; i++ {
		fmt.Fprintf(&w, "static const float w%06d = %d.%06de-3f;\n", i, i%97, i*i%999983)
	}
	if err := fs.WriteFile("/p/src/weights.h", w.Bytes()); err != nil {
		t.Fatal(err)
	}
	m, src, err := cas.BuildVFS(fs, "/p")
	if err != nil {
		t.Fatal(err)
	}
	return fs, tree{m, src}
}

// TestDeltaSubmitEndToEnd: the first submission uploads every chunk,
// the identical resubmission moves almost nothing and is answered from
// the warm build cache, and a one-file edit sends a partial delta.
func TestDeltaSubmitEndToEnd(t *testing.T) {
	e := newEnv(t)
	c := e.client(t, "team-delta")
	var termOut bytes.Buffer
	c.Stdout = &termOut

	_, p1 := projectTree(t, project.Spec{Impl: cnn.ImplIm2col, Team: "team-delta"})
	res, err := submitAndHandle(t, e, c, KindRun, build.Default(), p1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != StatusSucceeded || res.Accuracy != 1.0 {
		t.Fatalf("first submit: %+v", res)
	}
	if res.CachedBuild {
		t.Fatal("first submit claims a cache hit")
	}
	if res.Transfer == nil {
		t.Fatal("submit returned no transfer stats")
	}
	if res.Transfer.ChunksSent != res.Transfer.ChunksTotal || res.Transfer.ChunksSent == 0 {
		t.Fatalf("first submit sent %d of %d chunks", res.Transfer.ChunksSent, res.Transfer.ChunksTotal)
	}
	firstSent := res.Transfer.SentBytes

	// Identical tree, 60 virtual seconds later (past the rate limit):
	// nothing but the manifest travels, and the worker replays the
	// cached build instead of running the container.
	e.clock.Advance(time.Minute)
	_, p2 := projectTree(t, project.Spec{Impl: cnn.ImplIm2col, Team: "team-delta"})
	if p2.m.TreeHash != p1.m.TreeHash {
		t.Fatalf("identical tree hashed differently: %s vs %s", p2.m.TreeHash, p1.m.TreeHash)
	}
	res2, err := submitAndHandle(t, e, c, KindRun, build.Default(), p2)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Status != StatusSucceeded || res2.Accuracy != 1.0 {
		t.Fatalf("resubmit: %+v", res2)
	}
	if res2.Transfer.ChunksSent != 0 {
		t.Errorf("resubmit re-uploaded %d chunks", res2.Transfer.ChunksSent)
	}
	if 20*res2.Transfer.SentBytes > firstSent {
		t.Errorf("resubmit sent %d bytes, first sent %d — wanted ≥95%% reduction", res2.Transfer.SentBytes, firstSent)
	}
	if !res2.CachedBuild {
		t.Error("identical-input resubmission did not hit the build cache")
	}
	if res2.Accuracy != res.Accuracy || res2.InternalTimer != res.InternalTimer {
		t.Errorf("cached replay drifted: %+v vs %+v", res2, res)
	}
	if !strings.Contains(termOut.String(), "build cache hit") {
		t.Error("cache hit not announced on the job log")
	}

	// An edited tree misses the cache and executes for real.
	e.clock.Advance(time.Minute)
	fs3, _ := projectTree(t, project.Spec{Impl: cnn.ImplIm2col, Team: "team-delta"})
	if err := fs3.WriteFile("/p/src/tuning.h", []byte("#define TILE_WIDTH 32\n")); err != nil {
		t.Fatal(err)
	}
	m3, src3, err := cas.BuildVFS(fs3, "/p")
	if err != nil {
		t.Fatal(err)
	}
	res3, err := submitAndHandle(t, e, c, KindRun, build.Default(), tree{m3, src3})
	if err != nil {
		t.Fatal(err)
	}
	if res3.CachedBuild {
		t.Error("edited tree reported a cache hit")
	}
	if res3.Transfer.ChunksSent == 0 || res3.Transfer.ChunksSent == res3.Transfer.ChunksTotal {
		t.Errorf("one-file edit sent %d of %d chunks — expected a partial delta",
			res3.Transfer.ChunksSent, res3.Transfer.ChunksTotal)
	}
}

// TestSubmissionsNeverCached: final submissions always execute, even
// with a warm cache entry for the exact tree, because their results
// land on the ranking board.
func TestSubmissionsNeverCached(t *testing.T) {
	e := newEnv(t)
	c := e.client(t, "team-final")
	proj := newProject(t, project.Spec{Impl: cnn.ImplIm2col, Team: "team-final", WithUsage: true, WithReport: true})

	res, err := submitAndHandle(t, e, c, KindSubmit, nil, proj)
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != StatusSucceeded || res.CachedBuild {
		t.Fatalf("first final submit: %+v", res)
	}
	e.clock.Advance(time.Minute)
	res2, err := submitAndHandle(t, e, c, KindSubmit, nil, proj)
	if err != nil {
		t.Fatal(err)
	}
	if res2.CachedBuild {
		t.Error("final submission was answered from the build cache")
	}
}

// TestNonManifestUploadFailsJob: the upload object is a chunk manifest
// or the job fails. A worker handed a .tar.bz2 (what uploads used to
// be) or garbage says so once on the job's log and ends the job failed
// — it neither unpacks the archive nor guesses.
func TestNonManifestUploadFailsJob(t *testing.T) {
	fs := vfs.New()
	if err := project.WriteTo(fs, "/p", project.Spec{Impl: cnn.ImplIm2col}); err != nil {
		t.Fatal(err)
	}
	tarball, err := archivex.PackVFS(fs, "/p")
	if err != nil {
		t.Fatal(err)
	}
	for name, object := range map[string][]byte{
		"tar.bz2": tarball,
		"garbage": []byte("RAICAS1\n{not json"),
		"empty":   {},
	} {
		e := newEnv(t)
		c := e.client(t, "team-legacy")
		var term bytes.Buffer
		c.Stdout = &term
		key := "team-legacy/old/project.tar.bz2"
		if err := e.objects.Put(context.Background(), BucketUploads, key, object, UploadTTL); err != nil {
			t.Fatal(err)
		}
		type out struct {
			res *JobResult
			err error
		}
		done := make(chan out, 1)
		go func() {
			res, err := c.ResubmitContext(context.Background(), KindRun, BucketUploads, key)
			done <- out{res, err}
		}()
		if _, err := e.worker.HandleOne(context.Background(), 5*time.Second); err != nil {
			t.Fatal(err)
		}
		o := <-done
		if o.err != nil {
			t.Fatalf("%s: %v", name, o.err)
		}
		if o.res.Status != StatusFailed {
			t.Errorf("%s: status = %q, want failed", name, o.res.Status)
		}
		if n := strings.Count(term.String(), "cannot decode project manifest"); n != 1 {
			t.Errorf("%s: decode failure reported %d times on the log:\n%s", name, n, term.String())
		}
		if strings.Contains(term.String(), "Building project") {
			t.Errorf("%s: the build ran anyway:\n%s", name, term.String())
		}
	}
}
