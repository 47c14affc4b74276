package scaling

import (
	"context"
	"testing"
	"time"

	"rai/internal/broker"
	"rai/internal/clock"
	"rai/internal/telemetry"
)

// TestMetricsSourceFromBrokerTelemetry drives a real broker plus
// worker-histogram observations and asserts MetricsSource recovers the
// queue depth, arrival rate, and service time from the registry alone.
func TestMetricsSourceFromBrokerTelemetry(t *testing.T) {
	vc := clock.NewVirtual(time.Date(2016, 12, 9, 0, 0, 0, 0, time.UTC))
	reg := telemetry.NewRegistry()
	b := broker.New(broker.WithClock(vc), broker.WithTelemetry(reg))
	defer b.Close()
	b.ExportQueueDepth("rai", "tasks")

	src := MetricsSource(reg, "rai", "tasks", vc)
	in, err := src() // baseline sample: no window yet
	if err != nil {
		t.Fatal(err)
	}
	if in.QueueDepth != 0 || in.RecentArrivalsPerHour != 0 {
		t.Fatalf("baseline sample = %+v, want zeros", in)
	}

	// Ten submissions arrive in one minute; two jobs finish at 60s each.
	for i := 0; i < 10; i++ {
		if _, err := b.Publish(context.Background(), "rai", []byte("job")); err != nil {
			t.Fatal(err)
		}
	}
	jobSecs := reg.Histogram("rai_worker_job_seconds", "wall time per completed job")
	jobSecs.Observe(60)
	jobSecs.Observe(60)
	vc.Advance(time.Minute)

	in, err = src()
	if err != nil {
		t.Fatal(err)
	}
	if in.QueueDepth != 10 {
		t.Errorf("queue depth = %d, want 10 (topic backlog)", in.QueueDepth)
	}
	if in.RecentArrivalsPerHour < 599 || in.RecentArrivalsPerHour > 601 {
		t.Errorf("arrival rate = %v/h, want ~600", in.RecentArrivalsPerHour)
	}
	if in.AvgServiceSeconds != 60 {
		t.Errorf("avg service = %vs, want 60", in.AvgServiceSeconds)
	}

	// An elastic autoscaler fed by the source scales up; its own
	// bookkeeping lands in the same registry.
	fleet := 0
	a := &Autoscaler{
		Policy:    ElasticPolicy{Min: 2, Max: 30, SlotsPerInstance: 1},
		Source:    src,
		Clock:     vc,
		Telemetry: reg,
		ScaleUp:   func(n int) error { fleet += n; return nil },
		ScaleDown: func(n int) error { fleet -= n; return nil },
	}
	vc.Advance(time.Minute)
	delta, err := a.Step()
	if err != nil || delta <= 0 {
		t.Fatalf("step: delta=%d err=%v", delta, err)
	}
	if fleet != a.Current() {
		t.Errorf("fleet = %d, Current() = %d", fleet, a.Current())
	}
	if v, _ := reg.Value("rai_autoscaler_workers"); int(v) != fleet {
		t.Errorf("rai_autoscaler_workers = %v, want %d", v, fleet)
	}
	if v, _ := reg.Value("rai_autoscaler_scale_events_total", telemetry.L("direction", "up")); v != 1 {
		t.Errorf("scale-up events = %v, want 1", v)
	}
	if v, _ := reg.Value("rai_autoscaler_decisions_total"); int(v) != a.Decisions() {
		t.Errorf("decisions counter = %v, accessor = %d", v, a.Decisions())
	}
	if v, _ := reg.Value("rai_autoscaler_desired_workers"); int(v) != a.Current() {
		t.Errorf("desired gauge = %v, want %d after convergence", v, a.Current())
	}
}

// TestMetricsSourceMissingDepthGauge: without ExportQueueDepth the
// source errors, and the autoscaler treats the round as a blip (no
// fleet movement).
func TestMetricsSourceMissingDepthGauge(t *testing.T) {
	vc := clock.NewVirtual(time.Date(2016, 12, 9, 0, 0, 0, 0, time.UTC))
	reg := telemetry.NewRegistry()
	src := MetricsSource(reg, "rai", "tasks", vc)
	if _, err := src(); err == nil {
		t.Fatal("want error when rai_broker_queue_depth is not exported")
	}
	fleet := 5
	a := &Autoscaler{
		Policy:    FixedPolicy{N: 1},
		Source:    src,
		Clock:     vc,
		Telemetry: reg,
		ScaleUp:   func(n int) error { fleet += n; return nil },
		ScaleDown: func(n int) error { fleet -= n; return nil },
	}
	a.SetCurrent(5)
	if delta, err := a.Step(); err != nil || delta != 0 {
		t.Fatalf("blip step: delta=%d err=%v", delta, err)
	}
	if fleet != 5 {
		t.Fatalf("fleet moved on telemetry failure: %d", fleet)
	}
	if a.Decisions() != 1 {
		t.Fatalf("decisions = %d, want 1", a.Decisions())
	}
	if _, ok := reg.Value("rai_autoscaler_workers"); !ok {
		t.Fatal("autoscaler gauges not registered in shared registry")
	}
}
