package daemon

import (
	"bytes"
	"context"
	"net/http"
	"os"
	"path/filepath"
	"syscall"
	"testing"
	"time"
)

func TestWriteReadRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "svc.ready")
	want := Info{Service: "raifs", PID: 1234, Addr: "127.0.0.1:41459", MetricsAddr: "127.0.0.1:9000"}
	if err := writeInfo(path, want); err != nil {
		t.Fatal(err)
	}
	got, err := ReadInfo(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("got %+v, want %+v", got, want)
	}
	// No temp litter left behind.
	entries, err := os.ReadDir(filepath.Dir(path))
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("directory holds %d entries, want just the ready file", len(entries))
	}
}

func TestReadMissingAndCorrupt(t *testing.T) {
	dir := t.TempDir()
	if _, err := ReadInfo(filepath.Join(dir, "absent")); !os.IsNotExist(err) {
		t.Fatalf("missing file error = %v, want IsNotExist", err)
	}
	bad := filepath.Join(dir, "bad")
	os.WriteFile(bad, []byte("{half a doc"), 0o644)
	if _, err := ReadInfo(bad); err == nil || os.IsNotExist(err) {
		t.Fatalf("corrupt file error = %v", err)
	}
}

// TestNoMetricsAddr: without a metrics address there is no registry, no
// listener and no banner, and Ready still writes the ready file.
func TestNoMetricsAddr(t *testing.T) {
	var out bytes.Buffer
	path := filepath.Join(t.TempDir(), "svc.ready")
	d, err := Start(context.Background(), Config{Service: "svc", ReadyFile: path, Stdout: &out, Stderr: &out})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if d.Registry != nil || d.Tracer != nil || out.Len() != 0 {
		t.Errorf("registry %v, tracer %v, stdout %q; want none", d.Registry, d.Tracer, out.String())
	}
	if err := d.Ready("127.0.0.1:1"); err != nil {
		t.Fatal(err)
	}
	if info, err := ReadInfo(path); err != nil || info.MetricsAddr != "" || info.Addr != "127.0.0.1:1" {
		t.Errorf("ready file %+v, %v", info, err)
	}
}

// TestSignalStopsAfterReady is the supervisor's case: SIGTERM right
// after readiness starts the stop — /readyz turns 503 and Done closes —
// instead of killing the process.
func TestSignalStopsAfterReady(t *testing.T) {
	var out bytes.Buffer
	draining := make(chan int, 1)
	var readyz string
	d, err := Start(context.Background(), Config{Service: "svc", MetricsAddr: "127.0.0.1:0", Stdout: &out, Stderr: &out,
		Hooks: Hooks{Draining: func() { draining <- get(t, readyz) }}})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	readyz = "http://" + d.metricsAddr + "/readyz"
	if err := d.Ready(""); err != nil {
		t.Fatal(err)
	}
	if code := get(t, readyz); code != http.StatusOK {
		t.Fatalf("GET /readyz = %d while serving", code)
	}
	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case <-d.Context().Done():
	case <-time.After(5 * time.Second):
		t.Fatal("SIGTERM did not stop the daemon")
	}
	if code := <-draining; code != http.StatusServiceUnavailable {
		t.Errorf("GET /readyz while stopping = %d, want 503", code)
	}
}

// TestCloseWithoutStop: an error return closes the daemon without a
// stop; the Draining hook does not run.
func TestCloseWithoutStop(t *testing.T) {
	var out bytes.Buffer
	ran := false
	d, err := Start(context.Background(), Config{Service: "svc", Stdout: &out, Stderr: &out,
		Hooks: Hooks{Draining: func() { ran = true }}})
	if err != nil {
		t.Fatal(err)
	}
	d.Close()
	<-d.Context().Done()
	if ran {
		t.Error("Draining ran on Close")
	}
}

func TestBadMetricsAddr(t *testing.T) {
	var out bytes.Buffer
	if _, err := Start(context.Background(), Config{Service: "svc", MetricsAddr: "256.0.0.1:99999", Stdout: &out, Stderr: &out}); err == nil {
		t.Fatal("Start served an unbindable metrics address")
	}
}

func get(t *testing.T, url string) int {
	resp, err := http.Get(url)
	if err != nil {
		t.Log(err)
		return 0
	}
	resp.Body.Close()
	return resp.StatusCode
}
