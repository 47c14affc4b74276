package brokerd

import (
	"testing"
	"time"

	"rai/internal/broker"
	"rai/internal/netx"
	"rai/internal/telemetry"
)

func fastReconnPolicy() netx.Policy {
	return netx.Policy{
		MaxAttempts: 50,
		BaseDelay:   time.Millisecond,
		MaxDelay:    20 * time.Millisecond,
	}
}

// TestReconnectAcrossServerRestart is the broker half of the PR's
// resilience story: kill the TCP server mid-subscription, restart it on
// the same address over the same engine, and the wrapped client
// resubscribes and keeps consuming — including the redelivery of the
// message that was in flight when the server died.
func TestReconnectAcrossServerRestart(t *testing.T) {
	b := broker.New()
	defer b.Close()
	srv, err := NewServer(bg, b, "127.0.0.1:0", WithLogf(t.Logf))
	if err != nil {
		t.Fatal(err)
	}
	addr := srv.Addr()

	reg := telemetry.NewRegistry()
	policy := fastReconnPolicy()
	policy.Metrics = netx.NewMetrics(reg, "broker")
	rc := NewReconnClient(addr, policy, 0)
	defer rc.Close()

	if err := rc.Subscribe(bg, "rai", "tasks", 4); err != nil {
		t.Fatal(err)
	}
	if _, err := rc.Publish(bg, "rai", []byte("before restart")); err != nil {
		t.Fatal(err)
	}
	d1 := recvT(t, rc)
	if string(d1.Body) != "before restart" {
		t.Fatalf("first delivery = %q", d1.Body)
	}
	// Deliberately do NOT ack d1: the restart must requeue it.

	// Kill the server out from under the client, then bring it back on
	// the same address with the same engine (state survives, as a real
	// broker restart would replay its journal).
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	// Publish during the outage from another goroutine: the retry loop
	// should carry it through to the restarted server.
	pubErr := make(chan error, 1)
	go func() {
		_, err := rc.Publish(bg, "rai", []byte("during outage"))
		pubErr <- err
	}()
	time.Sleep(20 * time.Millisecond) // let the publish hit the dead addr at least once
	srv2, err := NewServer(bg, b, addr, WithLogf(t.Logf))
	if err != nil {
		t.Fatal(err)
	}
	defer srv2.Close()

	if err := <-pubErr; err != nil {
		t.Fatalf("publish during outage: %v", err)
	}

	// The subscription must come back without any action from us and
	// deliver both the requeued message and the outage-time publish.
	got := map[string]int{}
	for i := 0; i < 2; i++ {
		d := recvT(t, rc)
		got[string(d.Body)] = d.Attempts
		if err := rc.Ack(bg, d); err != nil {
			t.Fatalf("ack %q: %v", d.Body, err)
		}
	}
	if got["before restart"] < 2 {
		t.Errorf("requeued message attempts = %d, want >= 2 (got %v)", got["before restart"], got)
	}
	if _, ok := got["during outage"]; !ok {
		t.Errorf("outage-time publish never delivered: %v", got)
	}

	// Acking the pre-restart delivery again is a successful no-op: its
	// connection is gone and the broker already requeued (and we since
	// acked) it.
	if err := rc.Ack(bg, d1); err != nil {
		t.Errorf("stale ack: %v", err)
	}

	if v, _ := reg.Value(netx.MetricReconnects, telemetry.L("component", "broker")); v < 1 {
		t.Errorf("reconnects counter = %v, want >= 1", v)
	}
}

// TestPolicyMetricsAreTheMetrics: the retry policy is the one source of
// the counters — a client built from nothing but a policy whose Metrics
// is set counts its retries and its reconnect.
func TestPolicyMetricsAreTheMetrics(t *testing.T) {
	b := broker.New()
	defer b.Close()
	srv, err := NewServer(bg, b, "127.0.0.1:0", WithLogf(t.Logf))
	if err != nil {
		t.Fatal(err)
	}
	addr := srv.Addr()
	reg := telemetry.NewRegistry()
	policy := fastReconnPolicy()
	policy.Metrics = netx.NewMetrics(reg, "broker")
	rc := NewReconnClient(addr, policy, 0)
	defer rc.Close()
	if err := rc.Ping(bg); err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	pinged := make(chan error, 1)
	go func() { pinged <- rc.Ping(bg) }()
	time.Sleep(20 * time.Millisecond) // let the ping hit the dead addr at least once
	srv2, err := NewServer(bg, b, addr, WithLogf(t.Logf))
	if err != nil {
		t.Fatal(err)
	}
	defer srv2.Close()
	if err := <-pinged; err != nil {
		t.Fatalf("ping across the restart: %v", err)
	}
	component := telemetry.L("component", "broker")
	if v, _ := reg.Value(netx.MetricReconnects, component); v != 1 {
		t.Errorf("reconnects counter = %v, want 1", v)
	}
	if v, _ := reg.Value(netx.MetricRetries, component); v < 1 {
		t.Errorf("retries counter = %v, want >= 1", v)
	}
}

// TestDeadConnectionAckIsNoOp is broker.TestDeliveryIsBoundToOneAttempt
// over TCP: A's connection drops with a message un-acked and B receives
// the redelivery; A's late ack goes nowhere and B still owns the
// message. (A resubscribes on a fresh connection, but B is next in the
// channel's rotation, so the redelivery is B's.)
func TestDeadConnectionAckIsNoOp(t *testing.T) {
	b, srv := newPair(t)
	subscribe := func() *ReconnClient {
		rc := NewReconnClient(srv.Addr(), fastReconnPolicy(), 0)
		t.Cleanup(func() { rc.Close() })
		if err := rc.Subscribe(bg, "rai", "tasks", 1); err != nil {
			t.Fatal(err)
		}
		return rc
	}
	a, bSub := subscribe(), subscribe()
	if _, err := a.Publish(bg, "rai", []byte("job")); err != nil {
		t.Fatal(err)
	}
	ma := recvT(t, a)
	a.mu.Lock()
	dropped := a.cur
	a.mu.Unlock()
	dropped.nc.Close()

	mb := recvT(t, bSub)
	if ma.Attempts != 1 || mb.Attempts != 2 || mb.ID != ma.ID {
		t.Fatalf("A holds attempt %d (want 1), B attempt %d (want 2) of id %d/%d", ma.Attempts, mb.Attempts, ma.ID, mb.ID)
	}
	if err := a.Ack(bg, ma); err != nil {
		t.Errorf("ack for a dead connection: %v", err)
	}
	if cs := b.Stats()[0].Channels[0]; cs.InFlight != 1 || cs.Depth != 0 {
		t.Errorf("after A's stale ack: %+v, want B's delivery still in flight", cs)
	}
	if err := bSub.Ack(bg, mb); err != nil {
		t.Errorf("B's ack: %v", err)
	}
	if cs := b.Stats()[0].Channels[0]; cs.InFlight != 0 {
		t.Errorf("after B's ack: %+v", cs)
	}
}

// TestReconnClientServerErrorNotRetried pins the classification: an
// application-level refusal from the broker must surface immediately,
// not burn the retry budget.
func TestReconnClientServerErrorNotRetried(t *testing.T) {
	b := broker.New()
	defer b.Close()
	srv, err := NewServer(bg, b, "127.0.0.1:0", WithLogf(t.Logf))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	retries := 0
	p := fastReconnPolicy()
	p.OnRetry = func(int, time.Duration, error) { retries++ }
	rc := NewReconnClient(srv.Addr(), p, 0)
	defer rc.Close()

	if _, err := rc.Publish(bg, "bad topic name!", nil); err == nil {
		t.Fatal("invalid topic accepted")
	}
	if retries != 0 {
		t.Errorf("server error burned %d retries", retries)
	}
}

// TestReconnClientLazyDial pins that construction does not touch the
// network: dialing a dead address only fails once an operation runs.
func TestReconnClientLazyDial(t *testing.T) {
	p := netx.Policy{MaxAttempts: 2, BaseDelay: time.Millisecond, MaxDelay: time.Millisecond}
	rc := NewReconnClient("127.0.0.1:1", p, 0) // port 1: nothing listens
	defer rc.Close()
	if err := rc.Ping(bg); err == nil {
		t.Fatal("ping of dead address succeeded")
	}
}
