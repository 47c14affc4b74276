package docstore

import (
	"net/http/httptest"
	"testing"

	"rai/internal/telemetry"
)

func TestHandlerMetrics(t *testing.T) {
	reg := telemetry.NewRegistry()
	srv := httptest.NewServer(Handler(New(), nil, WithTelemetry(reg)))
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

	res, err := srv.Client().Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	snap, err := telemetry.ParseText(res.Body)
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
