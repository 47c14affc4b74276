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
	if _, err := c.List(context.Background(), "uploads", ""); err != nil {
		t.Fatal(err)
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
		{"rai_objstore_requests_total", []telemetry.Label{telemetry.L("op", "list")}, 1},
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
