package main

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"rai/internal/readyfile"
)

// TestVersionFlag checks the -version fast path: print the stamp, exit
// 0, never bind a listener.
func TestVersionFlag(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-version"}, &out, &errb, nil, nil); code != 0 {
		t.Fatalf("exit %d: %s", code, errb.String())
	}
	if !strings.Contains(out.String(), "raibroker") || !strings.Contains(out.String(), "go1") {
		t.Fatalf("version output %q", out.String())
	}
}

// TestReadyFile starts the daemon with -addr :0 and a ready file, and
// checks the file reports the actual bound port.
func TestReadyFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "broker.ready")
	ready := make(chan string, 1)
	quit := make(chan struct{})
	var out, errb bytes.Buffer
	done := make(chan int, 1)
	go func() {
		done <- run([]string{"-addr", "127.0.0.1:0", "-metrics-addr", "127.0.0.1:0",
			"-ready-file", path}, &out, &errb, ready, quit)
	}()
	var addr string
	select {
	case addr = <-ready:
	case <-time.After(5 * time.Second):
		t.Fatal("daemon never became ready")
	}
	info, err := readyfile.Read(path)
	if err != nil {
		t.Fatal(err)
	}
	if info.Service != "raibroker" || info.PID <= 0 {
		t.Fatalf("info = %+v", info)
	}
	if info.Addr != addr {
		t.Fatalf("ready file addr %q, bound %q", info.Addr, addr)
	}
	if strings.HasSuffix(info.Addr, ":0") || info.MetricsAddr == "" || strings.HasSuffix(info.MetricsAddr, ":0") {
		t.Fatalf("ready file did not resolve :0 -> bound ports: %+v", info)
	}
	close(quit)
	select {
	case code := <-done:
		if code != 0 {
			t.Fatalf("exit code %d: %s", code, errb.String())
		}
	case <-time.After(5 * time.Second):
		t.Fatal("daemon did not stop")
	}
}
