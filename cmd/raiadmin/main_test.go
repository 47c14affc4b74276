package main

import (
	"bytes"
	"context"
	"encoding/json"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"rai/internal/auth"
	"rai/internal/broker"
	"rai/internal/brokerd"
	"rai/internal/cnn"
	"rai/internal/core"
	"rai/internal/docstore"
	"rai/internal/netx"
	"rai/internal/objstore"
	"rai/internal/project"
	"rai/internal/registry"
	"rai/internal/sim"
	"rai/internal/vfs"
)

func TestKeygen(t *testing.T) {
	dir := t.TempDir()
	rosterPath := filepath.Join(dir, "roster.csv")
	os.WriteFile(rosterPath, []byte("firstname,lastname,userid\nAda,Lovelace,alove\nGrace,Hopper,ghopp\n"), 0o644)
	keysPath := filepath.Join(dir, "keys.json")
	outbox := filepath.Join(dir, "outbox")

	var out, errb bytes.Buffer
	code := run([]string{"keygen", "-roster", rosterPath, "-out", keysPath, "-outbox", outbox}, &out, &errb)
	if code != 0 {
		t.Fatalf("keygen exited %d: %s", code, errb.String())
	}
	blob, err := os.ReadFile(keysPath)
	if err != nil {
		t.Fatal(err)
	}
	var creds []auth.Credentials
	if err := json.Unmarshal(blob, &creds); err != nil {
		t.Fatal(err)
	}
	if len(creds) != 2 || creds[0].UserName != "alove" {
		t.Fatalf("creds = %+v", creds)
	}
	emails, err := os.ReadDir(outbox)
	if err != nil || len(emails) != 2 {
		t.Fatalf("outbox = %v, %v", emails, err)
	}
	content, _ := os.ReadFile(filepath.Join(outbox, emails[0].Name()))
	if !strings.Contains(string(content), "RAI_SECRET_KEY=") {
		t.Errorf("email missing keys:\n%s", content)
	}
}

func TestKeygenMissingRoster(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"keygen"}, &out, &errb); code == 0 {
		t.Fatal("keygen without roster succeeded")
	}
	if code := run([]string{"keygen", "-roster", "/nope.csv"}, &out, &errb); code == 0 {
		t.Fatal("keygen with missing roster file succeeded")
	}
}

func TestTeamgen(t *testing.T) {
	dir := t.TempDir()
	teamsPath := filepath.Join(dir, "teams.csv")
	os.WriteFile(teamsPath, []byte("team,members\nteam01,alove;ghopp\nteam02,aturing\n"), 0o644)
	keysPath := filepath.Join(dir, "teamkeys.json")
	var out, errb bytes.Buffer
	if code := run([]string{"teamgen", "-teams", teamsPath, "-out", keysPath}, &out, &errb); code != 0 {
		t.Fatalf("teamgen exited %d: %s", code, errb.String())
	}
	blob, _ := os.ReadFile(keysPath)
	var creds []auth.Credentials
	if err := json.Unmarshal(blob, &creds); err != nil {
		t.Fatal(err)
	}
	if len(creds) != 2 || creds[0].UserName != "team01" || creds[1].UserName != "team02" {
		t.Fatalf("creds = %+v", creds)
	}
	if code := run([]string{"teamgen"}, &out, &errb); code == 0 {
		t.Error("teamgen without -teams succeeded")
	}
}

func TestUnknownCommand(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"nonsense"}, &out, &errb); code == 0 {
		t.Fatal("unknown command accepted")
	}
	if code := run(nil, &out, &errb); code == 0 {
		t.Fatal("empty args accepted")
	}
}

// adminServices brings up the distributed stack with two graded teams.
func adminServices(t *testing.T) (brokerAddr, fsURL, dbURL, keysPath string) {
	t.Helper()
	b := broker.New()
	brokerSrv, err := brokerd.NewServer(context.Background(), b, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { brokerSrv.Close(); b.Close() })

	store := objstore.New()
	fsLn, _ := net.Listen("tcp", "127.0.0.1:0")
	fsSrv := &http.Server{Handler: objstore.Handler(store, nil)}
	go fsSrv.Serve(fsLn)
	t.Cleanup(func() { fsSrv.Close() })

	db := docstore.New()
	dbLn, _ := net.Listen("tcp", "127.0.0.1:0")
	dbSrv := &http.Server{Handler: docstore.Handler(db)}
	go dbSrv.Serve(dbLn)
	t.Cleanup(func() { dbSrv.Close() })

	reg := auth.NewRegistry()
	var creds []auth.Credentials
	for _, team := range []string{"team-fast", "team-slow"} {
		c, err := reg.Issue(team)
		if err != nil {
			t.Fatal(err)
		}
		creds = append(creds, c)
	}
	keysPath = filepath.Join(t.TempDir(), "keys.json")
	blob, _ := json.Marshal(creds)
	os.WriteFile(keysPath, blob, 0o600)

	dataFS := vfs.New()
	nw := cnn.NewNetwork(408)
	model, _ := nw.SaveModel()
	dataFS.WriteFile("/data/model.hdf5", model)
	ds, _ := cnn.SynthesizeDataset(nw, 409, 10)
	b1, _ := ds.Encode()
	dataFS.WriteFile("/data/test10.hdf5", b1)
	full, _ := cnn.SynthesizeDataset(nw, 410, 15)
	b2, _ := full.Encode()
	dataFS.WriteFile("/data/testfull.hdf5", b2)

	fsURL = "http://" + fsLn.Addr().String()
	dbURL = "http://" + dbLn.Addr().String()
	queue, err := brokerd.NewQueue(context.Background(), brokerSrv.Addr(), netx.Policy{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { queue.Close() })
	w := &core.Worker{
		Cfg:      core.WorkerConfig{ID: "admin-test-worker", MaxConcurrent: 2, RateLimit: time.Nanosecond},
		Queue:    queue,
		Objects:  objstore.NewClient(fsURL),
		DB:       docstore.NewClient(dbURL),
		Auth:     reg,
		Images:   registry.NewCourseRegistry(),
		DataFS:   dataFS,
		DataPath: "/data",
	}
	go w.Run(context.Background())
	t.Cleanup(w.Stop)

	// Two final submissions through the real client path.
	specs := map[string]project.Spec{
		"team-fast": {Impl: cnn.ImplParallel, Tuning: 1.0},
		"team-slow": {Impl: cnn.ImplTiled, Tuning: 1.5},
	}
	for _, c := range creds {
		spec := specs[c.UserName]
		spec.Team, spec.WithUsage, spec.WithReport = c.UserName, true, true
		m, src, err := sim.ProjectManifest(spec)
		if err != nil {
			t.Fatal(err)
		}
		clientQueue, err := brokerd.NewQueue(context.Background(), brokerSrv.Addr(), netx.Policy{})
		if err != nil {
			t.Fatal(err)
		}
		client := &core.Client{
			Creds: c, Queue: clientQueue,
			Objects: objstore.NewClient(fsURL),
			LogWait: time.Minute,
		}
		res, err := client.Submit(context.Background(), core.KindSubmit, nil, m, src)
		clientQueue.Close()
		if err != nil || res.Status != core.StatusSucceeded {
			t.Fatalf("seeding submission for %s: %v %+v", c.UserName, err, res)
		}
	}
	return brokerSrv.Addr(), fsURL, dbURL, keysPath
}

func TestRankingDownloadRerunGrade(t *testing.T) {
	brokerAddr, fsURL, dbURL, keysPath := adminServices(t)

	// ranking -hist
	var out, errb bytes.Buffer
	if code := run([]string{"ranking", "-db", dbURL, "-hist"}, &out, &errb); code != 0 {
		t.Fatalf("ranking exited %d: %s", code, errb.String())
	}
	if !strings.Contains(out.String(), "team-fast") || !strings.Contains(out.String(), "Runtime bin") {
		t.Errorf("ranking output:\n%s", out.String())
	}

	// download -cleanup
	outDir := filepath.Join(t.TempDir(), "subs")
	out.Reset()
	if code := run([]string{"download", "-db", dbURL, "-fs", fsURL, "-out", outDir, "-cleanup"}, &out, &errb); code != 0 {
		t.Fatalf("download exited %d: %s", code, errb.String())
	}
	if _, err := os.Stat(filepath.Join(outDir, "team-fast", "submission_code", "CMakeLists.txt")); err != nil {
		t.Errorf("downloaded submission missing: %v", err)
	}
	if _, err := os.Stat(filepath.Join(outDir, "team-fast", "Makefile")); !os.IsNotExist(err) {
		t.Error("cleanup left the Makefile")
	}

	// rerun
	out.Reset()
	if code := run([]string{"rerun", "-db", dbURL, "-fs", fsURL, "-broker", brokerAddr, "-keys", keysPath, "-team", "team-fast", "-n", "2"}, &out, &errb); code != 0 {
		t.Fatalf("rerun exited %d: %s", code, errb.String())
	}
	if !strings.Contains(out.String(), "best") || !strings.Contains(out.String(), "2 runs") {
		t.Errorf("rerun output:\n%s", out.String())
	}

	// grade with manual scores
	manualPath := filepath.Join(t.TempDir(), "manual.csv")
	os.WriteFile(manualPath, []byte("team,code_quality,report\nteam-fast,95,90\nteam-slow,80,85\n"), 0o644)
	out.Reset()
	if code := run([]string{"grade", "-db", dbURL, "-manual", manualPath}, &out, &errb); code != 0 {
		t.Fatalf("grade exited %d: %s", code, errb.String())
	}
	for _, want := range []string{"Grade report — team-fast", "Grade report — team-slow", "TOTAL"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("grade output missing %q:\n%s", want, out.String())
		}
	}
}

func TestRerunUnknownTeam(t *testing.T) {
	_, fsURL, dbURL, keysPath := adminServices(t)
	var out, errb bytes.Buffer
	if code := run([]string{"rerun", "-db", dbURL, "-fs", fsURL, "-keys", keysPath, "-team", "ghost"}, &out, &errb); code == 0 {
		t.Fatal("rerun of unknown team succeeded")
	}
}
