package main

import (
	"bytes"
	"encoding/json"
	"net/http/httptest"
	"strings"
	"testing"

	"rai/internal/telemetry"
)

func metricsEndpoint(t *testing.T) *httptest.Server {
	t.Helper()
	reg := telemetry.NewRegistry()
	reg.Counter("rai_broker_publish_total", "messages published", telemetry.L("topic", "rai")).Add(41)
	reg.Gauge("rai_worker_jobs_in_flight", "jobs executing").Set(3)
	reg.Histogram("rai_queue_delay_seconds", "queue delay").Observe(2.5)
	srv := httptest.NewServer(reg.Handler())
	t.Cleanup(srv.Close)
	return srv
}

func TestTopRendersScrapedMetrics(t *testing.T) {
	srv := metricsEndpoint(t)
	var out, errb bytes.Buffer
	if code := run([]string{"top", srv.URL + "/metrics"}, &out, &errb); code != 0 {
		t.Fatalf("exit = %d: %s", code, errb.String())
	}
	got := out.String()
	for _, want := range []string{
		"endpoint", "metric", "labels", "value", // header
		"rai_broker_publish_total", "topic=rai", "41",
		"rai_worker_jobs_in_flight", "3",
		"rai_queue_delay_seconds_count", "1",
		"rai_queue_delay_seconds_sum", "2.5",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("top output missing %q:\n%s", want, got)
		}
	}
	if strings.Contains(got, "_bucket") {
		t.Errorf("bucket series shown without -buckets:\n%s", got)
	}
}

func TestTopFilterAndBuckets(t *testing.T) {
	srv := metricsEndpoint(t)
	var out, errb bytes.Buffer
	if code := run([]string{"top", "-filter", "rai_queue", "-buckets", srv.URL + "/metrics"}, &out, &errb); code != 0 {
		t.Fatalf("exit = %d: %s", code, errb.String())
	}
	got := out.String()
	if strings.Contains(got, "rai_broker_publish_total") {
		t.Errorf("filter leaked other families:\n%s", got)
	}
	if !strings.Contains(got, "rai_queue_delay_seconds_bucket") {
		t.Errorf("-buckets did not include bucket series:\n%s", got)
	}
	if !strings.Contains(got, "le=+Inf") {
		t.Errorf("missing +Inf bucket:\n%s", got)
	}
}

// TestTopJSON checks -json output: one element per URL in argument
// order, with parsed samples scripts can consume directly.
func TestTopJSON(t *testing.T) {
	srv := metricsEndpoint(t)
	var out, errb bytes.Buffer
	if code := run([]string{"top", "-json", srv.URL + "/metrics"}, &out, &errb); code != 0 {
		t.Fatalf("exit = %d: %s", code, errb.String())
	}
	var report []struct {
		Endpoint string `json:"endpoint"`
		Samples  []struct {
			Name   string            `json:"name"`
			Labels map[string]string `json:"labels"`
			Value  float64           `json:"value"`
		} `json:"samples"`
	}
	if err := json.Unmarshal(out.Bytes(), &report); err != nil {
		t.Fatalf("output is not JSON: %v\n%s", err, out.String())
	}
	if len(report) != 1 {
		t.Fatalf("report has %d endpoints, want 1", len(report))
	}
	if !strings.Contains(srv.URL, report[0].Endpoint) {
		t.Errorf("endpoint %q not derived from %q", report[0].Endpoint, srv.URL)
	}
	found := map[string]float64{}
	for _, s := range report[0].Samples {
		found[s.Name] = s.Value
		if s.Name == "rai_broker_publish_total" && s.Labels["topic"] != "rai" {
			t.Errorf("publish counter labels = %v", s.Labels)
		}
		if strings.HasSuffix(s.Name, "_bucket") {
			t.Errorf("bucket series in JSON without -buckets: %s", s.Name)
		}
	}
	if found["rai_broker_publish_total"] != 41 {
		t.Errorf("publish counter = %v, want 41", found["rai_broker_publish_total"])
	}
	if found["rai_worker_jobs_in_flight"] != 3 {
		t.Errorf("gauge = %v, want 3", found["rai_worker_jobs_in_flight"])
	}
}

func TestTopBadInvocations(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"top"}, &out, &errb); code != 2 {
		t.Fatalf("no URLs: exit = %d", code)
	}
	if code := run([]string{"top", "http://127.0.0.1:1/metrics"}, &out, &errb); code != 1 {
		t.Fatalf("unreachable endpoint: exit = %d", code)
	}
}
