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

	c, err := dial(bg, srv.Addr(), 0)
	if err != nil {
		t.Fatal(err)
	}
	// A completed round trip guarantees serveConn is running.
	if err := c.Ping(bg); err != nil {
		t.Fatal(err)
	}
	if v, _ := reg.Value("rai_brokerd_connections"); v != 1 {
		t.Errorf("connections = %v, want 1", v)
	}
	if _, err := c.Publish(bg, "rai", []byte("job")); err != nil {
		t.Fatal(err)
	}
	c.Close()

	if v, _ := reg.Value("rai_brokerd_ops_total", telemetry.L("op", OpPub)); v != 1 {
		t.Errorf("ops{PUB} = %v, want 1", v)
	}
	if v, _ := reg.Value("rai_brokerd_ops_total", telemetry.L("op", OpPing)); v != 1 {
		t.Errorf("ops{PING} = %v, want 1", v)
	}
	// The engine-level counter moves through the wire path too.
	if v, _ := reg.Value("rai_broker_publish_total", telemetry.L("topic", "rai")); v != 1 {
		t.Errorf("broker publish_total = %v, want 1", v)
	}
}
