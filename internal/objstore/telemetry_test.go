package objstore

import (
	"bytes"
	"context"
	"net/http/httptest"
	"strings"
	"testing"

	"rai/internal/telemetry"
)

func TestHandlerMetrics(t *testing.T) {
	reg := telemetry.NewRegistry()
	store := New()
	srv := httptest.NewServer(Handler(store, nil, WithTelemetry(reg)))
	defer srv.Close()
	c := NewClient(srv.URL)

	payload := []byte("archive-bytes")
	if err := c.Put(context.Background(), "uploads", "team/j1/project.tar.bz2", payload, 0); err != nil {
		t.Fatal(err)
	}
	got, err := c.Get(context.Background(), "uploads", "team/j1/project.tar.bz2")
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(payload) {
		t.Fatalf("round trip mismatch: %q", got)
	}

	// The registry is served by the daemon's metrics listener, not by
	// the handler: read it directly.
	var exposition bytes.Buffer
	if err := reg.WritePrometheus(&exposition); err != nil {
		t.Fatal(err)
	}
	text := exposition.String()
	snap, err := telemetry.ParseText(&exposition)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		ls   []telemetry.Label
		want float64
	}{
		{"rai_objstore_requests_total", []telemetry.Label{telemetry.L("op", "put")}, 1},
		{"rai_objstore_requests_total", []telemetry.Label{telemetry.L("op", "get")}, 1},
		{"rai_objstore_bytes_total", []telemetry.Label{telemetry.L("direction", "in")}, float64(len(payload))},
		{"rai_objstore_used_bytes", nil, float64(len(payload))},
		{"rai_objstore_requests_in_flight", nil, 0},
		{"rai_objstore_request_seconds_count", []telemetry.Label{telemetry.L("op", "get")}, 1},
	} {
		if v, ok := snap.Value(tc.name, tc.ls...); !ok || v != tc.want {
			t.Errorf("%s%v = %v,%v, want %v", tc.name, tc.ls, v, ok, tc.want)
		}
	}
	if v, ok := snap.Value("rai_objstore_bytes_total", telemetry.L("direction", "out")); !ok || v < float64(len(payload)) {
		t.Errorf("bytes out = %v,%v, want >= %d", v, ok, len(payload))
	}
	// The scrape declares all three instrument types.
	for _, decl := range []string{
		"# TYPE rai_objstore_requests_total counter\n",
		"# TYPE rai_objstore_used_bytes gauge\n",
		"# TYPE rai_objstore_request_seconds histogram\n",
	} {
		if !strings.Contains(text, decl) {
			t.Errorf("scrape lacks %q", decl)
		}
	}
}

// TestEveryOpHasAClient drives every Client method through the handler
// and checks that each op the handler labels was counted: an op no
// client method sends is a route nothing calls. "other" is the label of
// unserved methods; "head" has no Client method, and the benchmark's
// read-back of /build sends it.
func TestEveryOpHasAClient(t *testing.T) {
	reg := telemetry.NewRegistry()
	srv := httptest.NewServer(Handler(New(), nil, WithTelemetry(reg)))
	defer srv.Close()
	c := NewClient(srv.URL)

	m, src := buildTestTree(t, map[string]string{"main.cu": strings.Repeat("__global__ void kernel();\n", 500)})
	for _, call := range []func() error{
		func() error { return c.Put(ctx, "uploads", "a", []byte("a"), 0) },
		func() error { return c.PutReader(ctx, "uploads", "b", strings.NewReader("b"), 1, 0) },
		func() error { _, err := c.Get(ctx, "uploads", "a"); return err },
		func() error {
			rc, _, err := c.GetReader(ctx, "uploads", "b")
			if err == nil {
				rc.Close()
			}
			return err
		},
		func() error {
			_, err := c.PutManifest(ctx, "uploads", "m", m.Encode(), 0, m.ChunkSet(), src)
			return err
		},
		func() error { return c.GetChunks(ctx, m.ChunkSet(), func(string, []byte) error { return nil }) },
	} {
		if err := call(); err != nil {
			t.Fatal(err)
		}
	}

	var exposition bytes.Buffer
	if err := reg.WritePrometheus(&exposition); err != nil {
		t.Fatal(err)
	}
	snap, err := telemetry.ParseText(&exposition)
	if err != nil {
		t.Fatal(err)
	}
	ops := 0
	for _, s := range snap.Samples {
		if s.Name != "rai_objstore_requests_total" || s.Labels["op"] == "other" || s.Labels["op"] == "head" {
			continue
		}
		ops++
		if s.Value == 0 {
			t.Errorf("op %q is served but no Client method sends it", s.Labels["op"])
		}
	}
	if ops == 0 {
		t.Fatal("no rai_objstore_requests_total series")
	}
}
