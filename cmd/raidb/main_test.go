package main

import (
	"bytes"
	"context"
	"path/filepath"
	"testing"
	"time"

	"rai/internal/docstore"
)

func TestJournalDurabilityAcrossRestart(t *testing.T) {
	root := filepath.Join(t.TempDir(), "db")
	boot := func() (addr string, stop func()) {
		ready := make(chan string, 1)
		quit := make(chan struct{})
		var out, errb bytes.Buffer
		done := make(chan int, 1)
		go func() {
			done <- run([]string{"-addr", "127.0.0.1:0", "-store-root", root}, &out, &errb, ready, quit)
		}()
		select {
		case addr = <-ready:
		case <-time.After(5 * time.Second):
			t.Fatalf("raidb never ready: %s", errb.String())
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

func TestServesDocuments(t *testing.T) {
	ready := make(chan string, 1)
	quit := make(chan struct{})
	var out, errb bytes.Buffer
	done := make(chan int, 1)
	go func() { done <- run([]string{"-addr", "127.0.0.1:0"}, &out, &errb, ready, quit) }()
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
	n, err := c.Count(context.Background(), "jobs", docstore.M{"status": "running"})
	if err != nil || n != 1 {
		t.Fatalf("count = %d, %v", n, err)
	}
	if _, err := c.Update(context.Background(), "jobs", docstore.M{"user": "t1"}, docstore.M{"$set": docstore.M{"status": "succeeded"}}); err != nil {
		t.Fatal(err)
	}
	doc, err := c.FindOne(context.Background(), "jobs", docstore.M{"user": "t1"})
	if err != nil || doc["status"] != "succeeded" {
		t.Fatalf("doc = %v, %v", doc, err)
	}
}
