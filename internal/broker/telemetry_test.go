package broker

import (
	"strings"
	"testing"
	"time"

	"rai/internal/clock"
	"rai/internal/telemetry"
)

func TestBrokerTelemetry(t *testing.T) {
	vc := clock.NewVirtual(time.Date(2016, 11, 11, 0, 0, 0, 0, time.UTC))
	reg := telemetry.NewRegistry()
	b := New(WithClock(vc), WithTelemetry(reg))
	defer b.Close()
	b.ExportQueueDepth("rai", "tasks")

	// A publish with no subscriber sits in the backlog: counted as
	// published, visible in the depth gauge, not yet delivered.
	if _, err := b.Publish(bg, "rai", []byte("job-1")); err != nil {
		t.Fatal(err)
	}
	if v, _ := reg.Value("rai_broker_publish_total", telemetry.L("topic", "rai")); v != 1 {
		t.Errorf("publish_total = %v, want 1", v)
	}
	if v, _ := reg.Value("rai_broker_queue_depth", telemetry.L("topic", "rai"), telemetry.L("channel", "tasks")); v != 1 {
		t.Errorf("queue_depth = %v, want 1", v)
	}
	if v, _ := reg.Value("rai_broker_deliver_total", telemetry.L("topic", "rai")); v != 0 {
		t.Errorf("deliver_total = %v before any subscriber", v)
	}

	// Subscribing 5 virtual seconds later drains the backlog; the
	// delivery-latency histogram sees the 5 s queue wait.
	vc.Advance(5 * time.Second)
	sub, err := b.Subscribe(bg, "rai", "tasks", 1)
	if err != nil {
		t.Fatal(err)
	}
	m := <-sub.C()
	if v, _ := reg.Value("rai_broker_deliver_total", telemetry.L("topic", "rai")); v != 1 {
		t.Errorf("deliver_total = %v, want 1", v)
	}
	if v, _ := reg.Value("rai_broker_queue_depth", telemetry.L("topic", "rai"), telemetry.L("channel", "tasks")); v != 0 {
		t.Errorf("queue_depth after drain = %v, want 0", v)
	}
	var buf strings.Builder
	reg.WritePrometheus(&buf)
	for _, want := range []string{
		`rai_broker_delivery_latency_seconds_bucket{le="4.194304"} 0`,
		`rai_broker_delivery_latency_seconds_bucket{le="8.388608"} 1`,
	} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("5s delivery latency not between the edges around it (%s):\n%s", want, buf.String())
		}
	}

	if err := sub.Requeue(bg, m); err != nil {
		t.Fatal(err)
	}
	m = <-sub.C()
	if err := sub.Ack(bg, m); err != nil {
		t.Fatal(err)
	}
	if v, _ := reg.Value("rai_broker_requeue_total"); v != 1 {
		t.Errorf("requeue_total = %v, want 1", v)
	}
	if v, _ := reg.Value("rai_broker_ack_total"); v != 1 {
		t.Errorf("ack_total = %v, want 1", v)
	}

	// Per-job log topics collapse into one "log" class so cardinality
	// stays bounded no matter how many jobs run.
	for _, topic := range []string{"log_j1#ch", "log_j2#ch"} {
		if _, err := b.Publish(bg, topic, []byte("line")); err != nil {
			t.Fatal(err)
		}
	}
	if v, _ := reg.Value("rai_broker_publish_total", telemetry.L("topic", "log")); v != 2 {
		t.Errorf("log-class publish_total = %v, want 2", v)
	}
	if v, _ := reg.Value("rai_broker_topics"); v != 3 {
		t.Errorf("rai_broker_topics = %v, want 3", v)
	}
}

func TestBrokerWithoutTelemetry(t *testing.T) {
	b := New()
	defer b.Close()
	if _, err := b.Publish(bg, "rai", []byte("x")); err != nil {
		t.Fatal(err)
	}
	sub, err := b.Subscribe(bg, "rai", "tasks", 1)
	if err != nil {
		t.Fatal(err)
	}
	m := <-sub.C()
	if err := sub.Ack(bg, m); err != nil {
		t.Fatal(err)
	}
}
