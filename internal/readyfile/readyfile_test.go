package readyfile

import (
	"os"
	"path/filepath"
	"testing"
)

func TestWriteReadRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "svc.ready")
	want := Info{Service: "raifs", PID: 1234, Addr: "127.0.0.1:41459", MetricsAddr: "127.0.0.1:9000"}
	if err := Write(path, want); err != nil {
		t.Fatal(err)
	}
	got, err := Read(path)
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
	if _, err := Read(filepath.Join(dir, "absent")); !os.IsNotExist(err) {
		t.Fatalf("missing file error = %v, want IsNotExist", err)
	}
	bad := filepath.Join(dir, "bad")
	os.WriteFile(bad, []byte("{half a doc"), 0o644)
	if _, err := Read(bad); err == nil || os.IsNotExist(err) {
		t.Fatalf("corrupt file error = %v", err)
	}
}
