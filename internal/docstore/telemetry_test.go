package docstore

import (
	"bytes"
	"net/http/httptest"
	"testing"

	"rai/internal/telemetry"
)

func TestHandlerMetrics(t *testing.T) {
	reg := telemetry.NewRegistry()
	srv := httptest.NewServer(Handler(New(), WithTelemetry(reg)))
	defer srv.Close()
	c := NewClient(srv.URL)

	if _, err := c.Insert(testCtx, "jobs", M{"_id": "j1", "status": "queued"}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Update(testCtx, "jobs", M{"_id": "j1"}, M{"$set": M{"status": "succeeded"}}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Find(testCtx, "jobs", M{}, FindOpts{}); err != nil {
		t.Fatal(err)
	}

	// The registry is served by the daemon's metrics listener, not by
	// the handler: read it directly.
	var exposition bytes.Buffer
	if err := reg.WritePrometheus(&exposition); err != nil {
		t.Fatal(err)
	}
	snap, err := telemetry.ParseText(&exposition)
	if err != nil {
		t.Fatal(err)
	}
	for _, verb := range []string{"insert", "update", "find"} {
		if v, ok := snap.Value("rai_docstore_requests_total", telemetry.L("verb", verb)); !ok || v != 1 {
			t.Errorf("requests_total{%s} = %v,%v, want 1", verb, v, ok)
		}
		if v, ok := snap.Value("rai_docstore_request_seconds_count", telemetry.L("verb", verb)); !ok || v != 1 {
			t.Errorf("request_seconds_count{%s} = %v,%v, want 1", verb, v, ok)
		}
	}
	if v, ok := snap.Value("rai_docstore_requests_in_flight"); !ok || v != 0 {
		t.Errorf("in_flight = %v,%v, want 0", v, ok)
	}
}

// TestEveryVerbHasAClient drives every Client method through the
// handler and checks that each verb the handler labels, bar "other",
// was counted: a verb no client method sends is a route nothing calls.
func TestEveryVerbHasAClient(t *testing.T) {
	reg := telemetry.NewRegistry()
	srv := httptest.NewServer(Handler(New(), WithTelemetry(reg)))
	defer srv.Close()
	c := NewClient(srv.URL)

	for _, call := range []func() error{
		func() error { _, err := c.Insert(testCtx, "jobs", M{"_id": "j1"}); return err },
		func() error { _, err := c.Find(testCtx, "jobs", M{}, FindOpts{}); return err },
		func() error { _, err := c.FindOne(testCtx, "jobs", M{"_id": "j1"}); return err },
		func() error {
			_, err := c.Update(testCtx, "jobs", M{"_id": "j1"}, M{"$set": M{"status": "running"}})
			return err
		},
		func() error {
			_, err := c.Upsert(testCtx, "jobs", M{"_id": "j2"}, M{"$set": M{"status": "queued"}})
			return err
		},
		func() error {
			_, err := c.UpsertMany(testCtx, []Upsert{{Coll: "events", Filter: M{"_id": "e1"}, Update: M{"$set": M{"n": 1}}}})
			return err
		},
		func() error { _, err := c.Delete(testCtx, "jobs", M{"_id": "j2"}); return err },
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
	verbs := 0
	for _, s := range snap.Samples {
		if s.Name != "rai_docstore_requests_total" || s.Labels["verb"] == "other" {
			continue
		}
		verbs++
		if s.Value == 0 {
			t.Errorf("verb %q is served but no Client method sends it", s.Labels["verb"])
		}
	}
	if verbs == 0 {
		t.Fatal("no rai_docstore_requests_total series")
	}
}
