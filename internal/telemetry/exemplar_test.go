package telemetry

import (
	"strings"
	"testing"
)

func TestHDRExemplarRecording(t *testing.T) {
	h := NewHDRHistogram()
	h.ObserveExemplar(0.010, "trace-slowish")
	h.ObserveExemplar(0.012, "trace-slower") // same bucket, latest wins
	h.ObserveExemplar(2.5, "trace-slowest")
	h.Observe(0.001) // no exemplar
	s := h.Snapshot()
	if len(s.Exemplars) != 2 {
		t.Fatalf("got %d exemplars, want 2 (one per populated bucket): %+v", len(s.Exemplars), s.Exemplars)
	}
	var ids []string
	for _, ex := range s.Exemplars {
		ids = append(ids, ex.TraceID)
		if ex.Value <= 0 {
			t.Errorf("exemplar %+v has no value", ex)
		}
	}
	joined := strings.Join(ids, ",")
	if !strings.Contains(joined, "trace-slower") || !strings.Contains(joined, "trace-slowest") {
		t.Errorf("exemplars %v missing expected traces", ids)
	}
	if strings.Contains(joined, "trace-slowish") {
		t.Error("older exemplar in the same bucket should have been replaced")
	}
}

func TestHDRExemplarExpositionRoundTrip(t *testing.T) {
	h := NewHDRHistogram()
	h.ObserveExemplar(0.040, "tr-abc")
	h.Observe(0.002)
	var b strings.Builder
	if err := h.Snapshot().write(&b, "rai_test_seconds", `phase="run"`); err != nil {
		t.Fatal(err)
	}
	text := b.String()
	if !strings.Contains(text, `# {trace_id="tr-abc"} 0.04`) {
		t.Fatalf("exposition missing exemplar suffix:\n%s", text)
	}
	snap, err := ParseText(strings.NewReader("# TYPE rai_test_seconds histogram\n" + text))
	if err != nil {
		t.Fatalf("ParseText on exemplar exposition: %v", err)
	}
	found := ""
	var exVal float64
	total := uint64(0)
	for _, smp := range snap.Samples {
		if smp.Name == "rai_test_seconds_count" {
			total = uint64(smp.Value)
		}
		if smp.Exemplar != nil {
			found = smp.Exemplar.TraceID()
			exVal = smp.Exemplar.Value
		}
	}
	if total != 2 {
		t.Errorf("parsed count %d, want 2", total)
	}
	if found != "tr-abc" || exVal != 0.040 {
		t.Errorf("parsed exemplar (%q, %v), want (tr-abc, 0.04)", found, exVal)
	}
}

func TestRegistryHDRFamilyExposition(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("rai_job_duration_seconds", "per-job wall time", L("worker", "w1"))
	h.ObserveExemplar(0.1, "tr-1")
	reg.Histogram("rai_job_duration_seconds", "per-job wall time", L("worker", "w2")).Observe(0.2)
	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	text := b.String()
	if !strings.Contains(text, "# TYPE rai_job_duration_seconds histogram") {
		t.Fatalf("histogram family missing TYPE line:\n%s", text)
	}
	if !strings.Contains(text, `trace_id="tr-1"`) {
		t.Fatalf("histogram family exposition missing exemplar:\n%s", text)
	}
	snap, err := ParseText(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	if v, ok := snap.Value("rai_job_duration_seconds_count", L("worker", "w1")); !ok || v != 1 {
		t.Errorf("w1 count = %v (%v), want 1", v, ok)
	}
	if v, ok := snap.Value("rai_job_duration_seconds_count", L("worker", "w2")); !ok || v != 1 {
		t.Errorf("w2 count = %v (%v), want 1", v, ok)
	}
	// Same instrument back from a second registration.
	if reg.Histogram("rai_job_duration_seconds", "", L("worker", "w1")) != h {
		t.Error("re-registration returned a different instrument")
	}
}

func TestRegistryHDRNameClash(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("rai_thing_total", "")
	func() {
		defer func() {
			if recover() == nil {
				t.Error("histogram registration over a counter name must panic")
			}
		}()
		reg.Histogram("rai_thing_total", "")
	}()
	reg2 := NewRegistry()
	reg2.Histogram("rai_lat_seconds", "")
	func() {
		defer func() {
			if recover() == nil {
				t.Error("counter registration over a histogram name must panic")
			}
		}()
		reg2.Counter("rai_lat_seconds", "")
	}()
}
