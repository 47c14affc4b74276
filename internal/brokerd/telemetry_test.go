package brokerd

import (
	"testing"

	"rai/internal/broker"
	"rai/internal/telemetry"
)

func TestServerTelemetry(t *testing.T) {
	reg := telemetry.NewRegistry()
	b := broker.New(broker.WithTelemetry(reg))
	defer b.Close()
	srv, err := NewServer(bg, b, "127.0.0.1:0", WithTelemetry(reg), WithLogf(t.Logf))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	c, err := dial(bg, srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	// A completed round trip guarantees serveConn is running.
	if _, err := c.Publish(bg, "rai", []byte("job")); err != nil {
		t.Fatal(err)
	}
	if v, _ := reg.Value("rai_brokerd_connections"); v != 1 {
		t.Errorf("connections = %v, want 1", v)
	}
	if err := c.Subscribe(bg, "rai", "tasks", 1); err != nil {
		t.Fatal(err)
	}
	c.Close()

	for op, want := range map[string]float64{OpPub: 1, OpSub: 1, OpUnsub: 0} {
		if v, _ := reg.Value("rai_brokerd_ops_total", telemetry.L("op", op)); v != want {
			t.Errorf("ops{%s} = %v, want %v", op, v, want)
		}
	}
	// The engine-level counter moves through the wire path too.
	if v, _ := reg.Value("rai_broker_publish_total", telemetry.L("topic", "rai")); v != 1 {
		t.Errorf("broker publish_total = %v, want 1", v)
	}
}
