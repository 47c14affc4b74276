package brokerd

import (
	"context"
	"errors"
	"testing"
	"time"

	"rai/internal/broker"
)

// TestQueueParity runs one set of scenarios against both
// implementations of the broker.Queue port — the engine in process and
// the TCP queue over a real server — so code written against the port
// sees the same behaviour either way.
func TestQueueParity(t *testing.T) {
	engines := map[string]func(t *testing.T) (broker.Queue, *broker.Broker){
		"in-process": func(t *testing.T) (broker.Queue, *broker.Broker) {
			b := broker.New()
			t.Cleanup(func() { b.Close() })
			return b, b
		},
		"tcp": func(t *testing.T) (broker.Queue, *broker.Broker) {
			b, srv := newPair(t)
			q, err := NewQueue(bg, srv.Addr(), fastReconnPolicy())
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { q.Close() })
			return q, b
		},
	}
	subscribe := func(t *testing.T, q broker.Queue, topic, channel string, maxInFlight int) broker.Consumer {
		t.Helper()
		sub, err := q.Subscribe(bg, topic, channel, maxInFlight)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { sub.Close() })
		return sub
	}
	publish := func(t *testing.T, q broker.Queue, topic, body string) uint64 {
		t.Helper()
		id, err := q.Publish(bg, topic, []byte(body))
		if err != nil {
			t.Fatal(err)
		}
		return id
	}
	tasks := func(b *broker.Broker) broker.ChannelStats { return b.Stats()[0].Channels[0] }

	scenarios := map[string]func(t *testing.T, q broker.Queue, b *broker.Broker){
		"publish deliver ack": func(t *testing.T, q broker.Queue, b *broker.Broker) {
			sub := subscribe(t, q, "rai", "tasks", 4)
			id := publish(t, q, "rai", "job")
			m := recvT(t, sub)
			if id == 0 || m.ID != id || string(m.Body) != "job" || m.Topic != "rai" || m.Attempts != 1 {
				t.Fatalf("published id %d, delivery = %+v", id, m)
			}
			if err := sub.Ack(bg, m); err != nil {
				t.Fatal(err)
			}
			if cs := tasks(b); cs.InFlight != 0 || cs.Depth != 0 {
				t.Errorf("after ack: %+v", cs)
			}
		},
		"requeue redelivers as attempt 2": func(t *testing.T, q broker.Queue, b *broker.Broker) {
			sub := subscribe(t, q, "rai", "tasks", 1)
			publish(t, q, "rai", "retry me")
			m := recvT(t, sub)
			if err := sub.Requeue(bg, m); err != nil {
				t.Fatal(err)
			}
			m2 := recvT(t, sub)
			if m2.ID != m.ID || m2.Attempts != 2 || m.Attempts != 1 {
				t.Fatalf("first %+v, redelivery %+v", m, m2)
			}
		},
		"close hands the un-acked message on": func(t *testing.T, q broker.Queue, b *broker.Broker) {
			w1 := subscribe(t, q, "rai", "tasks", 1)
			publish(t, q, "rai", "orphaned job")
			recvT(t, w1) // in flight, never acked
			w1.Close()
			m := recvT(t, subscribe(t, q, "rai", "tasks", 1))
			if string(m.Body) != "orphaned job" || m.Attempts != 2 {
				t.Fatalf("redelivery = %+v", m)
			}
		},
		"in-flight window": func(t *testing.T, q broker.Queue, b *broker.Broker) {
			const n = 2
			sub := subscribe(t, q, "rai", "tasks", n)
			for i := 0; i <= n; i++ {
				publish(t, q, "rai", string(rune('a'+i)))
			}
			first := recvT(t, sub)
			recvT(t, sub)
			select {
			case m := <-sub.C():
				t.Fatalf("message %q delivered past a window of %d", m.Body, n)
			case <-time.After(50 * time.Millisecond):
			}
			if err := sub.Ack(bg, first); err != nil {
				t.Fatal(err)
			}
			if m := recvT(t, sub); string(m.Body) != string(rune('a'+n)) {
				t.Fatalf("after settling one: %q", m.Body)
			}
		},
		"ephemeral topic collected": func(t *testing.T, q broker.Queue, b *broker.Broker) {
			sub := subscribe(t, q, "log_x#ch", "ch", 4)
			publish(t, q, "log_x#ch", "line")
			if err := sub.Ack(bg, recvT(t, sub)); err != nil {
				t.Fatal(err)
			}
			if !hasTopic(b, "log_x#ch") {
				t.Fatal("topic missing while subscribed")
			}
			sub.Close()
			// Over TCP the server notices the closed connection on its own time.
			deadline := time.Now().Add(2 * time.Second)
			for hasTopic(b, "log_x#ch") && time.Now().Before(deadline) {
				time.Sleep(5 * time.Millisecond)
			}
			if hasTopic(b, "log_x#ch") {
				t.Error("ephemeral topic not collected after its last consumer closed")
			}
		},
		"cancelled ctx refused": func(t *testing.T, q broker.Queue, b *broker.Broker) {
			ctx, cancel := context.WithCancel(bg)
			cancel()
			if _, err := q.Publish(ctx, "rai", []byte("job")); !errors.Is(err, context.Canceled) {
				t.Errorf("Publish = %v", err)
			}
			if _, err := q.Subscribe(ctx, "rai", "tasks", 1); !errors.Is(err, context.Canceled) {
				t.Errorf("Subscribe = %v", err)
			}
			if hasTopic(b, "rai") {
				t.Error("a refused call reached the engine")
			}
		},
	}
	for engine, mk := range engines {
		for name, scenario := range scenarios {
			t.Run(engine+"/"+name, func(t *testing.T) {
				q, b := mk(t)
				scenario(t, q, b)
			})
		}
	}
}

// hasTopic reports whether the engine holds the topic.
func hasTopic(b *broker.Broker, name string) bool {
	for _, ts := range b.Stats() {
		if ts.Topic == name {
			return true
		}
	}
	return false
}
