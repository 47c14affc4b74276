package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"rai/internal/daemon"
	"rai/internal/docstore"
)

// bootStore runs raidb over the store at root and returns its address
// and a stop function.
func bootStore(t *testing.T, root string) (addr string, stop func()) {
	t.Helper()
	ready := make(chan string, 1)
	quit := make(chan struct{})
	var out, errb bytes.Buffer
	done := make(chan int, 1)
	go func() {
		done <- run([]string{"-addr", "127.0.0.1:0", "-store-root", root}, &out, &errb, daemon.Hooks{Ready: ready, Quit: quit})
	}()
	select {
	case addr = <-ready:
	case code := <-done:
		t.Fatalf("raidb exited %d: %s", code, errb.String())
	case <-time.After(5 * time.Second):
		t.Fatalf("raidb never ready: %s", errb.String())
	}
	if want := "raidb journaling to " + filepath.Join(root, "journal", "rai.journal"); !strings.Contains(out.String(), want) {
		t.Errorf("stdout %q does not name the journal file", out.String())
	}
	return addr, func() {
		close(quit)
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			t.Error("raidb did not stop")
		}
	}
}

func TestJournalDurabilityAcrossRestart(t *testing.T) {
	root := filepath.Join(t.TempDir(), "db")
	boot := func() (string, func()) { return bootStore(t, root) }
	addr, stop := boot()
	c := docstore.NewClient("http://" + addr)
	if _, err := c.Insert(context.Background(), "rankings", docstore.M{"team": "alpha", "runtime_s": 0.45}); err != nil {
		t.Fatal(err)
	}
	stop()

	// Restart on the same journal: the ranking row survives.
	addr2, stop2 := boot()
	defer stop2()
	c2 := docstore.NewClient("http://" + addr2)
	doc, err := c2.FindOne(context.Background(), "rankings", docstore.M{"team": "alpha"})
	if err != nil || doc["runtime_s"] != 0.45 {
		t.Fatalf("after restart: %v, %v", doc, err)
	}
}

// TestRestartAfterTornAppend is the shape kill -9 (or a full disk)
// leaves mid-append: half a line at the end of the journal file. The
// restart serves every complete write, and a further write and restart
// are clean.
func TestRestartAfterTornAppend(t *testing.T) {
	root := filepath.Join(t.TempDir(), "db")
	ctx := context.Background()
	addr, stop := bootStore(t, root)
	c := docstore.NewClient("http://" + addr)
	for i := 0; i < 3; i++ {
		if _, err := c.Upsert(ctx, "jobs", docstore.M{"job_id": fmt.Sprint("j", i)}, docstore.M{"$set": docstore.M{"status": "succeeded"}}); err != nil {
			t.Fatal(err)
		}
	}
	stop()
	f, err := os.OpenFile(filepath.Join(root, "journal", "rai.journal"), os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"coll":"jobs","id":"x","doc":{"_id":"x","sta`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	for round := 0; round < 2; round++ {
		addr, stop = bootStore(t, root)
		c = docstore.NewClient("http://" + addr)
		want := 3 + round
		if docs, err := c.Find(ctx, "jobs", docstore.M{"status": "succeeded"}, docstore.FindOpts{}); err != nil || len(docs) != want {
			t.Fatalf("restart %d serves %d jobs, %v; want %d", round, len(docs), err, want)
		}
		if _, err := c.Insert(ctx, "jobs", docstore.M{"job_id": fmt.Sprint("after", round), "status": "succeeded"}); err != nil {
			t.Fatal(err)
		}
		stop()
	}
}

func TestServesDocuments(t *testing.T) {
	ready := make(chan string, 1)
	quit := make(chan struct{})
	var out, errb bytes.Buffer
	done := make(chan int, 1)
	go func() {
		done <- run([]string{"-addr", "127.0.0.1:0"}, &out, &errb, daemon.Hooks{Ready: ready, Quit: quit})
	}()
	var addr string
	select {
	case addr = <-ready:
	case <-time.After(5 * time.Second):
		t.Fatalf("raidb never ready: %s", errb.String())
	}
	defer func() {
		close(quit)
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			t.Error("raidb did not stop")
		}
	}()

	c := docstore.NewClient("http://" + addr)
	id, err := c.Insert(context.Background(), "jobs", docstore.M{"user": "t1", "status": "running"})
	if err != nil || id == "" {
		t.Fatalf("insert: %q, %v", id, err)
	}
	docs, err := c.Find(context.Background(), "jobs", docstore.M{"status": "running"}, docstore.FindOpts{})
	if err != nil || len(docs) != 1 {
		t.Fatalf("running jobs = %v, %v", docs, err)
	}
	if _, err := c.Update(context.Background(), "jobs", docstore.M{"user": "t1"}, docstore.M{"$set": docstore.M{"status": "succeeded"}}); err != nil {
		t.Fatal(err)
	}
	doc, err := c.FindOne(context.Background(), "jobs", docstore.M{"user": "t1"})
	if err != nil || doc["status"] != "succeeded" {
		t.Fatalf("doc = %v, %v", doc, err)
	}
}
