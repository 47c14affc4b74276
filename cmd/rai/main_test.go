package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"rai/internal/auth"
	"rai/internal/broker"
	"rai/internal/brokerd"
	"rai/internal/cas"
	"rai/internal/clock"
	"rai/internal/cnn"
	"rai/internal/core"
	"rai/internal/docstore"
	"rai/internal/netx"
	"rai/internal/objstore"
	"rai/internal/project"
	"rai/internal/registry"
	"rai/internal/telemetry"
	"rai/internal/vfs"
)

// services starts a loopback broker/fs/db plus a worker and returns the
// endpoints and team credentials.
func services(t *testing.T) (brokerAddr, fsURL, dbURL string, creds auth.Credentials) {
	t.Helper()
	d := deploy(t)
	return d.brokerAddr, d.fsURL, d.dbURL, d.creds
}

// deployment is what services starts, with the file server's store, the
// virtual clock its TTLs run on and the registry its handler counts
// requests in.
type deployment struct {
	brokerAddr, fsURL, dbURL string
	creds                    auth.Credentials
	store                    *objstore.Store
	fsClock                  *clock.Virtual
	fsMetrics                *telemetry.Registry
}

func deploy(t *testing.T) *deployment {
	t.Helper()
	b := broker.New()
	brokerSrv, err := brokerd.NewServer(context.Background(), b, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { brokerSrv.Close(); b.Close() })

	fsClock := clock.NewVirtual(time.Now())
	fsMetrics := telemetry.NewRegistry()
	store := objstore.New(objstore.WithClock(fsClock), objstore.WithDefaultTTL(core.UploadTTL))
	fsLn, _ := net.Listen("tcp", "127.0.0.1:0")
	fsSrv := &http.Server{Handler: objstore.Handler(store, nil, objstore.WithTelemetry(fsMetrics))}
	go fsSrv.Serve(fsLn)
	t.Cleanup(func() { fsSrv.Close() })

	db := docstore.New()
	dbLn, _ := net.Listen("tcp", "127.0.0.1:0")
	dbSrv := &http.Server{Handler: docstore.Handler(db)}
	go dbSrv.Serve(dbLn)
	t.Cleanup(func() { dbSrv.Close() })

	reg := auth.NewRegistry()
	creds, err := reg.Issue("cli-team")
	if err != nil {
		t.Fatal(err)
	}

	dataFS := vfs.New()
	nw := cnn.NewNetwork(408)
	model, _ := nw.SaveModel()
	dataFS.WriteFile("/data/model.hdf5", model)
	ds, _ := cnn.SynthesizeDataset(nw, 409, 10)
	blob, _ := ds.Encode()
	dataFS.WriteFile("/data/test10.hdf5", blob)
	full, _ := cnn.SynthesizeDataset(nw, 410, 15)
	blob, _ = full.Encode()
	dataFS.WriteFile("/data/testfull.hdf5", blob)

	queue, err := brokerd.NewQueue(context.Background(), brokerSrv.Addr(), netx.Policy{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { queue.Close() })
	w := &core.Worker{
		Cfg:      core.WorkerConfig{ID: "test-worker", MaxConcurrent: 2, RateLimit: time.Nanosecond},
		Queue:    queue,
		Objects:  objstore.NewClient("http://" + fsLn.Addr().String()),
		DB:       docstore.NewClient("http://" + dbLn.Addr().String()),
		Auth:     reg,
		Images:   registry.NewCourseRegistry(),
		DataFS:   dataFS,
		DataPath: "/data",
	}
	go w.Run(context.Background())
	t.Cleanup(w.Stop)

	return &deployment{
		brokerAddr: brokerSrv.Addr(), fsURL: "http://" + fsLn.Addr().String(), dbURL: "http://" + dbLn.Addr().String(),
		creds: creds, store: store, fsClock: fsClock, fsMetrics: fsMetrics,
	}
}

// connCounter relays TCP connections to a server and counts them.
type connCounter struct {
	addr string
	n    atomic.Int64
}

func countConns(t *testing.T, target string) *connCounter {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	cc := &connCounter{addr: ln.Addr().String()}
	go func() {
		for {
			in, err := ln.Accept()
			if err != nil {
				return
			}
			cc.n.Add(1)
			out, err := net.Dial("tcp", target)
			if err != nil {
				in.Close()
				continue
			}
			go func() { io.Copy(out, in); out.Close() }()
			go func() { io.Copy(in, out); in.Close() }()
		}
	}()
	return cc
}

// writeProject materializes a student project on disk, and points the
// user's cache directory, where rai keeps the project's stat index, at
// one of the test's own.
func writeProject(t *testing.T, spec project.Spec) string {
	t.Helper()
	t.Setenv("XDG_CACHE_HOME", t.TempDir())
	dir := t.TempDir()
	for rel, content := range project.Files(spec) {
		p := filepath.Join(dir, filepath.FromSlash(rel))
		if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(p, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

func writeProfile(t *testing.T, creds auth.Credentials) string {
	t.Helper()
	p := filepath.Join(t.TempDir(), ".rai.profile")
	if err := os.WriteFile(p, []byte(auth.FormatProfile(creds)), 0o600); err != nil {
		t.Fatal(err)
	}
	return p
}

func TestRaiVersion(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"version"}, &out, &errb); code != 0 {
		t.Fatalf("exit %d: %s", code, errb.String())
	}
	if !strings.Contains(out.String(), "rai 0.2.0-dev") {
		t.Errorf("version output = %q", out.String())
	}
}

func TestRaiRunEndToEnd(t *testing.T) {
	brokerAddr, fsURL, dbURL, creds := services(t)
	dir := writeProject(t, project.Spec{Impl: cnn.ImplIm2col, Tuning: 1, Team: "cli-team"})
	profile := writeProfile(t, creds)

	var out, errb bytes.Buffer
	code := run([]string{
		"-p", dir, "-profile", profile,
		"-broker", brokerAddr, "-fs", fsURL, "-db", dbURL,
		"-timeout", "60s",
		"run",
	}, &out, &errb)
	if code != 0 {
		t.Fatalf("rai run exited %d\nstdout: %s\nstderr: %s", code, out.String(), errb.String())
	}
	for _, want := range []string{"Building project", "Correctness: 1.0000", "succeeded", "build output:"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output missing %q:\n%s", want, out.String())
		}
	}
}

// TestRaiStatIndex: rai keeps one stat index per project in the user's
// cache directory, and neither a corrupt index nor a cache directory it
// cannot write changes what the worker gets: the uploaded manifest is
// always the tree on disk.
func TestRaiStatIndex(t *testing.T) {
	brokerAddr, fsURL, dbURL, creds := services(t)
	dir := writeProject(t, project.Spec{Impl: cnn.ImplIm2col, Tuning: 1, Team: "cli-team"})
	cacheDir, err := os.UserCacheDir()
	if err != nil {
		t.Fatal(err)
	}
	profile := writeProfile(t, creds)
	objects := objstore.NewClient(fsURL)
	jobRE := regexp.MustCompile(`job (\S+) succeeded`)

	// submit runs rai with notes.txt holding note, and checks that the
	// manifest the worker was sent is the tree's.
	submit := func(note string) {
		t.Helper()
		if err := os.WriteFile(filepath.Join(dir, "notes.txt"), []byte(note), 0o644); err != nil {
			t.Fatal(err)
		}
		var out, errb bytes.Buffer
		if code := run([]string{"-p", dir, "-profile", profile, "-broker", brokerAddr, "-fs", fsURL, "-db", dbURL, "-timeout", "60s", "run"}, &out, &errb); code != 0 {
			t.Fatalf("rai run exited %d\nstdout: %s\nstderr: %s", code, out.String(), errb.String())
		}
		job := jobRE.FindStringSubmatch(out.String())
		if job == nil {
			t.Fatalf("no job id in:\n%s", out.String())
		}
		blob, err := objects.Get(context.Background(), core.BucketUploads, creds.UserName+"/"+job[1]+"/project.manifest")
		if err != nil {
			t.Fatal(err)
		}
		sent, err := cas.Decode(blob)
		if err != nil {
			t.Fatal(err)
		}
		onDisk, _, err := cas.Build(os.DirFS(dir), nil)
		if err != nil {
			t.Fatal(err)
		}
		if sent.TreeHash != onDisk.TreeHash {
			t.Fatalf("worker was sent tree %s, the project is %s", sent.TreeHash, onDisk.TreeHash)
		}
	}
	indexFiles := func() []string {
		t.Helper()
		files, err := filepath.Glob(filepath.Join(cacheDir, "rai", "index", "*"))
		if err != nil {
			t.Fatal(err)
		}
		return files
	}

	submit("first run\n")
	files := indexFiles()
	if len(files) != 1 {
		t.Fatalf("after one run the index directory holds %v, want one file", files)
	}

	const garbage = "not an index"
	if err := os.WriteFile(files[0], []byte(garbage), 0o600); err != nil {
		t.Fatal(err)
	}
	submit("second run\n")
	if again := indexFiles(); len(again) != 1 || again[0] != files[0] {
		t.Fatalf("after the second run the index directory holds %v", again)
	}
	if data, err := os.ReadFile(files[0]); err != nil || string(data) == garbage {
		t.Fatalf("corrupt index not rewritten: %q, %v", data, err)
	}

	// A cache directory under a regular file cannot be created, even by
	// root, for whom permission bits are no obstacle.
	blocker := filepath.Join(t.TempDir(), "file")
	if err := os.WriteFile(blocker, nil, 0o600); err != nil {
		t.Fatal(err)
	}
	t.Setenv("XDG_CACHE_HOME", filepath.Join(blocker, "cache"))
	submit("third run\n")
}

// TestRaiTalksToEachServerOnce: rai uploads a project in one raifs
// request, two when raifs lacks chunks rai did not send, and holds one
// broker connection for the publish, the log subscription and the
// telemetry it ships. A first run has no index record, so it sends the
// manifest alone and then the chunks raifs names; a resubmission after
// an edit sends the edited file's chunks with the manifest; and when
// raifs has swept chunks the index still names, it asks for them and
// the job succeeds.
func TestRaiTalksToEachServerOnce(t *testing.T) {
	d := deploy(t)
	broker := countConns(t, d.brokerAddr)
	dir := writeProject(t, project.Spec{Impl: cnn.ImplIm2col, Tuning: 1, Team: "cli-team"})
	profile := writeProfile(t, d.creds)
	uploads := func() float64 {
		v, _ := d.fsMetrics.Value("rai_objstore_requests_total", telemetry.L("op", "cas-manifest"))
		return v
	}
	submit := func(step, note string, wantUploads float64) {
		t.Helper()
		if err := os.WriteFile(filepath.Join(dir, "notes.txt"), []byte(note), 0o644); err != nil {
			t.Fatal(err)
		}
		before, conns := uploads(), broker.n.Load()
		var out, errb bytes.Buffer
		if code := run([]string{"-p", dir, "-profile", profile, "-broker", broker.addr, "-fs", d.fsURL, "-db", d.dbURL, "-timeout", "60s", "run"}, &out, &errb); code != 0 {
			t.Fatalf("%s: rai run exited %d\nstdout: %s\nstderr: %s", step, code, out.String(), errb.String())
		}
		if !strings.Contains(out.String(), "succeeded") {
			t.Fatalf("%s: job did not succeed:\n%s", step, out.String())
		}
		if got := uploads() - before; got != wantUploads {
			t.Errorf("%s: %v upload requests, want %v", step, got, wantUploads)
		}
		if got := broker.n.Load() - conns; got != 1 {
			t.Errorf("%s: %d broker connections, want 1", step, got)
		}
	}
	submit("first run", "first run\n", 2)
	submit("resubmission", "second run\n", 1)

	d.fsClock.Advance(2 * core.UploadTTL)
	if n, err := d.store.Sweep(context.Background()); err != nil || n == 0 {
		t.Fatalf("sweep removed %d objects: %v", n, err)
	}
	submit("after a sweep", "third run\n", 2)
}

func TestRaiSubmitAndRanking(t *testing.T) {
	brokerAddr, fsURL, dbURL, creds := services(t)
	dir := writeProject(t, project.Spec{
		Impl: cnn.ImplParallel, Tuning: 1, Team: "cli-team", WithUsage: true, WithReport: true,
	})
	profile := writeProfile(t, creds)
	common := []string{"-p", dir, "-profile", profile, "-broker", brokerAddr, "-fs", fsURL, "-db", dbURL, "-timeout", "60s"}

	var out, errb bytes.Buffer
	if code := run(append(common, "submit"), &out, &errb); code != 0 {
		t.Fatalf("rai submit exited %d\n%s\n%s", code, out.String(), errb.String())
	}
	out.Reset()
	if code := run(append(common, "ranking"), &out, &errb); code != 0 {
		t.Fatalf("rai ranking exited %d: %s", code, errb.String())
	}
	if !strings.Contains(out.String(), "cli-team (you)") || !strings.Contains(out.String(), "ranked 1 of 1") {
		t.Errorf("ranking output:\n%s", out.String())
	}
}

func TestRaiSubmitRequiresReport(t *testing.T) {
	brokerAddr, fsURL, dbURL, creds := services(t)
	dir := writeProject(t, project.Spec{Impl: cnn.ImplParallel, Team: "cli-team"}) // no USAGE/report.pdf
	profile := writeProfile(t, creds)
	var out, errb bytes.Buffer
	code := run([]string{"-p", dir, "-profile", profile, "-broker", brokerAddr, "-fs", fsURL, "-db", dbURL, "submit"}, &out, &errb)
	if code == 0 {
		t.Fatal("submit without report.pdf succeeded")
	}
	if !strings.Contains(errb.String(), "USAGE") && !strings.Contains(errb.String(), "report.pdf") {
		t.Errorf("stderr = %q", errb.String())
	}
}

// TestRaiStepsOneAndTwo pins the lines client steps 1–2 print, before
// any service is dialled: a missing project directory, a tree with no
// rai-build.yml, and a final submission without USAGE or report.pdf.
func TestRaiStepsOneAndTwo(t *testing.T) {
	profile := writeProfile(t, auth.NewCredentials("cli-team"))
	dir := writeProject(t, project.Spec{Impl: cnn.ImplParallel, Team: "cli-team"})
	if err := os.Remove(filepath.Join(dir, "rai-build.yml")); err != nil {
		t.Fatal(err)
	}
	missing := filepath.Join(t.TempDir(), "nowhere")
	withUsage := writeProject(t, project.Spec{Impl: cnn.ImplParallel, Team: "cli-team", WithUsage: true})
	for _, c := range []struct {
		dir, cmd, stdout, stderr string
	}{
		{missing, "run", "", "rai: project directory " + missing + " does not exist\n"},
		{dir, "submit", "no rai-build.yml found; using the course default\n", "rai: final submission requires USAGE\n"},
		{withUsage, "submit", "", "rai: final submission requires report.pdf\n"},
	} {
		var out, errb bytes.Buffer
		// Port 1 refuses: a step that let the command through would fail
		// on the broker, with other output.
		code := run([]string{"-p", c.dir, "-profile", profile, "-broker", "127.0.0.1:1", c.cmd}, &out, &errb)
		if code != 1 || out.String() != c.stdout || errb.String() != c.stderr {
			t.Errorf("rai -p %s %s: exit %d\nstdout %q, want %q\nstderr %q, want %q", c.dir, c.cmd, code, out.String(), c.stdout, errb.String(), c.stderr)
		}
	}
}

// TestRaiSymlinkedProject: a project directory named through a symlink
// ships the tree the link points to, not an empty one.
func TestRaiSymlinkedProject(t *testing.T) {
	brokerAddr, fsURL, dbURL, creds := services(t)
	dir := writeProject(t, project.Spec{Impl: cnn.ImplIm2col, Tuning: 1, Team: "cli-team"})
	link := filepath.Join(t.TempDir(), "project")
	if err := os.Symlink(dir, link); err != nil {
		t.Fatal(err)
	}
	var out, errb bytes.Buffer
	code := run([]string{"-p", link, "-profile", writeProfile(t, creds), "-broker", brokerAddr, "-fs", fsURL, "-db", dbURL, "-timeout", "60s", "run"}, &out, &errb)
	if code != 0 || !strings.Contains(out.String(), "Correctness: 1.0000") {
		t.Fatalf("rai -p <symlink> run exited %d\nstdout: %s\nstderr: %s", code, out.String(), errb.String())
	}
}

func TestRaiMissingProfile(t *testing.T) {
	var out, errb bytes.Buffer
	code := run([]string{"-profile", "/nonexistent/.rai.profile", "run"}, &out, &errb)
	if code == 0 {
		t.Fatal("missing profile accepted")
	}
	if !strings.Contains(errb.String(), ".rai.profile") {
		t.Errorf("stderr = %q", errb.String())
	}
}

func TestRaiBadCommand(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"frobnicate"}, &out, &errb); code == 0 {
		t.Fatal("unknown command accepted")
	}
	if code := run(nil, &out, &errb); code == 0 {
		t.Fatal("no command accepted")
	}
}

// TestKeysJSONRoundTrip verifies the keygen file format the daemons load.
func TestKeysJSONRoundTrip(t *testing.T) {
	creds := []auth.Credentials{auth.NewCredentials("a"), auth.NewCredentials("b")}
	blob, err := json.Marshal(creds)
	if err != nil {
		t.Fatal(err)
	}
	var back []auth.Credentials
	if err := json.Unmarshal(blob, &back); err != nil {
		t.Fatal(err)
	}
	if back[0] != creds[0] || back[1] != creds[1] {
		t.Error("keys.json round trip mismatch")
	}
}
