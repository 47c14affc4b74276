package main

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"testing"
	"time"

	"rai/internal/auth"
	"rai/internal/objstore"
)

func startDaemon(t *testing.T, args ...string) string {
	t.Helper()
	ready := make(chan string, 1)
	quit := make(chan struct{})
	var out, errb bytes.Buffer
	done := make(chan int, 1)
	go func() { done <- run(append([]string{"-addr", "127.0.0.1:0"}, args...), &out, &errb, ready, quit) }()
	var addr string
	select {
	case addr = <-ready:
	case <-time.After(5 * time.Second):
		t.Fatalf("raifs never ready: %s", errb.String())
	}
	t.Cleanup(func() {
		close(quit)
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			t.Error("raifs did not stop")
		}
	})
	return addr
}

var ctx = context.Background()

func TestServesObjects(t *testing.T) {
	addr := startDaemon(t)
	c := objstore.NewClient("http://" + addr)
	if err := c.Put(ctx, "uploads", "k", []byte("archive"), time.Hour); err != nil {
		t.Fatal(err)
	}
	got, err := c.Get(ctx, "uploads", "k")
	if err != nil || string(got) != "archive" {
		t.Fatalf("get = %q, %v", got, err)
	}
	resp, err := http.Get("http://" + addr + "/healthz")
	if err != nil || resp.StatusCode != 200 {
		t.Fatalf("healthz: %v", err)
	}
	resp.Body.Close()
}

func TestAuthRequiredWithKeys(t *testing.T) {
	creds := auth.NewCredentials("team1")
	keysPath := filepath.Join(t.TempDir(), "keys.json")
	blob, _ := json.Marshal([]auth.Credentials{creds})
	os.WriteFile(keysPath, blob, 0o600)
	addr := startDaemon(t, "-keys", keysPath)

	// Unsigned request: forbidden.
	c := objstore.NewClient("http://" + addr)
	if err := c.Put(ctx, "uploads", "k", []byte("x"), 0); err == nil {
		t.Fatal("unsigned put accepted")
	}
	// Signed request: accepted.
	c.Sign = auth.SignHTTP(creds, time.Now)
	if err := c.Put(ctx, "uploads", "k", []byte("x"), 0); err != nil {
		t.Fatalf("signed put: %v", err)
	}
}

func TestDiskDurabilityAcrossRestart(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "objects")
	addr := startDaemon(t, "-store-root", dir)
	c := objstore.NewClient("http://" + addr)
	if err := c.Put(ctx, "rai-uploads", "team/x.tar.bz2", []byte("payload"), time.Hour); err != nil {
		t.Fatal(err)
	}
	// A second daemon instance on the same directory serves the object.
	addr2 := startDaemon(t, "-store-root", dir)
	c2 := objstore.NewClient("http://" + addr2)
	got, err := c2.Get(ctx, "rai-uploads", "team/x.tar.bz2")
	if err != nil || string(got) != "payload" {
		t.Fatalf("after restart: %q, %v", got, err)
	}
}

func TestBadKeysFile(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-addr", "127.0.0.1:0", "-keys", "/nope.json"}, &out, &errb, nil, nil); code != 1 {
		t.Fatalf("exit = %d", code)
	}
}
