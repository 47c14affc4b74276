package brokerd

import (
	"context"
	"sync/atomic"
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
	rc := NewReconnClient(addr, policy)
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
	rc := NewReconnClient(addr, policy)
	defer rc.Close()
	if _, err := rc.Publish(bg, "rai", []byte("before")); err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	published := make(chan error, 1)
	go func() {
		_, err := rc.Publish(bg, "rai", []byte("across"))
		published <- err
	}()
	time.Sleep(20 * time.Millisecond) // let the publish hit the dead addr at least once
	srv2, err := NewServer(bg, b, addr, WithLogf(t.Logf))
	if err != nil {
		t.Fatal(err)
	}
	defer srv2.Close()
	if err := <-published; err != nil {
		t.Fatalf("publish across the restart: %v", err)
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
		rc := NewReconnClient(srv.Addr(), fastReconnPolicy())
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
	rc := NewReconnClient(srv.Addr(), p)
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
	rc := NewReconnClient("127.0.0.1:1", p) // port 1: nothing listens
	defer rc.Close()
	if _, err := rc.Publish(bg, "rai", nil); err == nil {
		t.Fatal("publish to a dead address succeeded")
	}
}

// TestOversizedPublishLeavesConnectionAlone: a publish over the frame
// limit is refused once, before anything is written — no retry, no
// redial — and calls sharing the connection, before, during and after
// it, see no error.
func TestOversizedPublishLeavesConnectionAlone(t *testing.T) {
	b := broker.New()
	defer b.Close()
	srv, err := NewServer(bg, b, "127.0.0.1:0", WithLogf(t.Logf))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	reg := telemetry.NewRegistry()
	p := fastReconnPolicy()
	p.Metrics = netx.NewMetrics(reg, "broker")
	var retries atomic.Int32
	p.OnRetry = func(int, time.Duration, error) { retries.Add(1) }
	rc := NewReconnClient(srv.Addr(), p)
	defer rc.Close()
	if err := rc.connect(bg); err != nil {
		t.Fatal(err)
	}
	rc.mu.Lock()
	first := rc.cur
	rc.mu.Unlock()

	// A publish whose frame is never flushed waits forever; bound it.
	ctx, cancel := context.WithTimeout(bg, 10*time.Second)
	defer cancel()
	stop := make(chan struct{})
	errs := make(chan error, 1)
	go func() {
		defer close(errs)
		for {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := rc.Publish(ctx, "small", []byte("x")); err != nil {
				errs <- err
				return
			}
		}
	}()
	_, err = rc.Publish(bg, "big", make([]byte, maxFrameSize+1))
	close(stop)
	if err == nil || !netx.IsPermanent(err) {
		t.Fatalf("oversized publish: err = %v, want a permanent refusal", err)
	}
	if err := <-errs; err != nil {
		t.Fatalf("a publish sharing the connection failed: %v", err)
	}
	if n := retries.Load(); n != 0 {
		t.Errorf("%d retries", n)
	}
	rc.mu.Lock()
	same := rc.cur == first
	rc.mu.Unlock()
	if v, _ := reg.Value(netx.MetricReconnects, telemetry.L("component", "broker")); !same || v != 0 {
		t.Errorf("connection replaced (%v), %v reconnects", !same, v)
	}
	if _, err := rc.Publish(ctx, "small", []byte("after")); err != nil {
		t.Fatalf("publish after the refusal: %v", err)
	}
}

// TestQueueSubscribesOnItsPublishConnection: a queue that subscribes once
// holds one connection — the first subscription rides the publish
// connection — and closing that subscription ends it on the broker
// (its topic is collected) while publishes carry on over the same
// connection. A second subscription holds its own.
func TestQueueSubscribesOnItsPublishConnection(t *testing.T) {
	reg := telemetry.NewRegistry()
	b := broker.New()
	defer b.Close()
	srv, err := NewServer(bg, b, "127.0.0.1:0", WithTelemetry(reg), WithLogf(t.Logf))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	conns := func() float64 { v, _ := reg.Value("rai_brokerd_connections"); return v }
	waitConns := func(want float64) {
		t.Helper()
		for deadline := time.Now().Add(2 * time.Second); conns() != want && time.Now().Before(deadline); {
			time.Sleep(5 * time.Millisecond)
		}
		if got := conns(); got != want {
			t.Fatalf("%v connections open, want %v", got, want)
		}
	}
	q, err := NewQueue(bg, srv.Addr(), fastReconnPolicy())
	if err != nil {
		t.Fatal(err)
	}
	defer q.Close()
	log, err := q.Subscribe(bg, "log_j1#ephemeral", "ch", 8)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := q.Publish(bg, "log_j1#ephemeral", []byte("line")); err != nil {
		t.Fatal(err)
	}
	if err := log.Ack(bg, recvT(t, log)); err != nil {
		t.Fatal(err)
	}
	waitConns(1)

	if err := log.Close(); err != nil {
		t.Fatal(err)
	}
	if _, ok := <-log.C(); ok {
		t.Error("delivery stream open after Close")
	}
	if _, err := q.Publish(bg, "rai", []byte("after")); err != nil {
		t.Fatalf("publish after the shared subscription closed: %v", err)
	}
	if hasTopic(b, "log_j1#ephemeral") {
		t.Error("ephemeral topic kept after its subscription closed")
	}
	waitConns(1)

	tasks, err := q.Subscribe(bg, "rai", "tasks", 1)
	if err != nil {
		t.Fatal(err)
	}
	defer tasks.Close()
	if m := recvT(t, tasks); string(m.Body) != "after" {
		t.Fatalf("second subscription got %q", m.Body)
	}
	waitConns(2)
}

// TestSharedSubscriptionSurvivesRestart: the subscription that rides the
// publish connection is replayed on the redialed connection after a
// broker restart, and the message in flight when the broker died is
// delivered again.
func TestSharedSubscriptionSurvivesRestart(t *testing.T) {
	b := broker.New()
	defer b.Close()
	srv, err := NewServer(bg, b, "127.0.0.1:0", WithLogf(t.Logf))
	if err != nil {
		t.Fatal(err)
	}
	addr := srv.Addr()
	q, err := NewQueue(bg, addr, fastReconnPolicy())
	if err != nil {
		t.Fatal(err)
	}
	defer q.Close()
	sub, err := q.Subscribe(bg, "rai", "tasks", 4)
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	if _, err := q.Publish(bg, "rai", []byte("before restart")); err != nil {
		t.Fatal(err)
	}
	recvT(t, sub) // in flight, never acked
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	srv2, err := NewServer(bg, b, addr, WithLogf(t.Logf))
	if err != nil {
		t.Fatal(err)
	}
	defer srv2.Close()
	if _, err := q.Publish(bg, "rai", []byte("after restart")); err != nil {
		t.Fatalf("publish after the restart: %v", err)
	}
	got := map[string]int{}
	for len(got) < 2 {
		m := recvT(t, sub)
		got[string(m.Body)] = m.Attempts
		if err := sub.Ack(bg, m); err != nil {
			t.Fatal(err)
		}
	}
	if got["before restart"] < 2 || got["after restart"] != 1 {
		t.Errorf("deliveries after the restart: %v", got)
	}
}
