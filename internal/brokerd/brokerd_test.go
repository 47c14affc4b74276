package brokerd

import (
	"bytes"
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"rai/internal/broker"
)

var bg = context.Background()

func newPair(t *testing.T) (*broker.Broker, *Server) {
	t.Helper()
	b := broker.New()
	srv, err := NewServer(bg, b, "127.0.0.1:0", WithLogf(t.Logf))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		srv.Close()
		b.Close()
	})
	return b, srv
}

func dialT(t *testing.T, srv *Server) *conn {
	t.Helper()
	c, err := dial(bg, srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

func recvT(t *testing.T, c broker.Consumer) *broker.Message {
	t.Helper()
	select {
	case d, ok := <-c.C():
		if !ok {
			t.Fatal("delivery stream closed")
		}
		return d
	case <-time.After(3 * time.Second):
		t.Fatal("timed out waiting for delivery")
		return nil
	}
}

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	in := &Frame{Op: OpMsg, Seq: 7, Topic: "rai", MsgID: 42, Body: []byte("payload"), Attempts: 2}
	if err := EncodeFrame(&buf, in); err != nil {
		t.Fatal(err)
	}
	out, err := DecodeFrame(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if out.Op != in.Op || out.Seq != in.Seq || out.MsgID != in.MsgID || string(out.Body) != "payload" {
		t.Fatalf("round trip = %+v", out)
	}
}

func TestFrameSizeLimit(t *testing.T) {
	var buf bytes.Buffer
	big := &Frame{Op: OpPub, Body: bytes.Repeat([]byte("x"), maxFrameSize)}
	if err := EncodeFrame(&buf, big); err == nil {
		t.Error("oversized frame accepted on write")
	}
	// Forged oversized header on read.
	buf.Reset()
	buf.Write([]byte{0xff, 0xff, 0xff, 0xff})
	if _, err := DecodeFrame(&buf); err == nil || !strings.Contains(err.Error(), "exceeds") {
		t.Errorf("oversized header: %v", err)
	}
}

func TestPublishSubscribe(t *testing.T) {
	_, srv := newPair(t)
	pub := dialT(t, srv)
	subC := dialT(t, srv)

	if err := subC.Subscribe(bg, "rai", "tasks", 4); err != nil {
		t.Fatal(err)
	}
	id, err := pub.Publish(bg, "rai", []byte("job payload"))
	if err != nil {
		t.Fatal(err)
	}
	if id == 0 {
		t.Error("publish returned zero message id")
	}
	d := recvT(t, subC)
	if string(d.Body) != "job payload" || d.Topic != "rai" || d.Attempts != 1 {
		t.Fatalf("delivery = %+v", d)
	}
	if err := subC.Ack(bg, d); err != nil {
		t.Fatal(err)
	}
}

func TestRequeueOverTCP(t *testing.T) {
	_, srv := newPair(t)
	pub := dialT(t, srv)
	sub := dialT(t, srv)
	sub.Subscribe(bg, "rai", "tasks", 1)
	pub.Publish(bg, "rai", []byte("retry me"))
	d := recvT(t, sub)
	if err := sub.Requeue(bg, d); err != nil {
		t.Fatal(err)
	}
	d2 := recvT(t, sub)
	if d2.Attempts != 2 {
		t.Errorf("Attempts = %d, want 2", d2.Attempts)
	}
	sub.Ack(bg, d2)
}

func TestDisconnectRequeuesInFlight(t *testing.T) {
	b, srv := newPair(t)
	pub := dialT(t, srv)
	w1 := dialT(t, srv)
	w1.Subscribe(bg, "rai", "tasks", 1)
	pub.Publish(bg, "rai", []byte("orphaned job"))
	recvT(t, w1) // in flight, never acked
	w1.Close()   // worker crash

	// Give the server a moment to tear down and requeue.
	deadline := time.Now().Add(2 * time.Second)
	for b.Depth("rai", "tasks") == 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	w2 := dialT(t, srv)
	w2.Subscribe(bg, "rai", "tasks", 1)
	d := recvT(t, w2)
	if string(d.Body) != "orphaned job" || d.Attempts != 2 {
		t.Fatalf("redelivery = %+v", d)
	}
	w2.Ack(bg, d)
}

func TestDoubleSubscribeRejected(t *testing.T) {
	_, srv := newPair(t)
	c := dialT(t, srv)
	if err := c.Subscribe(bg, "rai", "tasks", 1); err != nil {
		t.Fatal(err)
	}
	if err := c.Subscribe(bg, "rai", "other", 1); err == nil {
		t.Error("second subscribe on one connection succeeded")
	}
}

func TestAckWithoutSubscribe(t *testing.T) {
	_, srv := newPair(t)
	c := dialT(t, srv)
	if err := c.Ack(bg, &broker.Message{ID: 1}); err == nil {
		t.Error("ack without subscription succeeded")
	}
}

func TestBadTopicNameOverTCP(t *testing.T) {
	_, srv := newPair(t)
	c := dialT(t, srv)
	if _, err := c.Publish(bg, "bad topic name!", nil); err == nil {
		t.Error("invalid topic accepted")
	}
}

func TestServerCloseDropsClients(t *testing.T) {
	_, srv := newPair(t)
	c := dialT(t, srv)
	c.Subscribe(bg, "rai", "tasks", 1)
	srv.Close()
	select {
	case _, ok := <-c.C():
		if ok {
			t.Error("got a delivery after server close")
		}
	case <-time.After(2 * time.Second):
		t.Error("delivery stream did not close")
	}
	if _, err := c.Publish(bg, "rai", []byte("job")); err == nil {
		t.Error("publish succeeded after server close")
	}
}

func TestConcurrentPublishers(t *testing.T) {
	_, srv := newPair(t)
	sub := dialT(t, srv)
	sub.Subscribe(bg, "rai", "tasks", 64)

	const publishers, each = 4, 25
	var wg sync.WaitGroup
	for p := 0; p < publishers; p++ {
		c := dialT(t, srv)
		wg.Add(1)
		go func(p int, c *conn) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				if _, err := c.Publish(bg, "rai", []byte(fmt.Sprintf("%d:%d", p, i))); err != nil {
					t.Errorf("publish: %v", err)
					return
				}
			}
		}(p, c)
	}
	seen := map[string]bool{}
	for i := 0; i < publishers*each; i++ {
		d := recvT(t, sub)
		if seen[string(d.Body)] {
			t.Fatalf("duplicate %s", d.Body)
		}
		seen[string(d.Body)] = true
		sub.Ack(bg, d)
	}
	wg.Wait()
}

func TestPipelinedPublishesOnOneConnection(t *testing.T) {
	_, srv := newPair(t)
	c := dialT(t, srv)
	var wg sync.WaitGroup
	for i := 0; i < 50; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if _, err := c.Publish(bg, "rai", []byte{byte(i)}); err != nil {
				t.Errorf("pipelined publish %d: %v", i, err)
			}
		}(i)
	}
	wg.Wait()
}
