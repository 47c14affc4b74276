package broker

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"rai/internal/clock"
)

var bg = context.Background()

func recvTimeout(t *testing.T, sub Consumer) *Message {
	t.Helper()
	select {
	case m, ok := <-sub.C():
		if !ok {
			t.Fatal("subscription channel closed")
		}
		return m
	case <-time.After(2 * time.Second):
		t.Fatal("timed out waiting for message")
		return nil
	}
}

func TestPublishSubscribeBasic(t *testing.T) {
	b := New()
	defer b.Close()
	sub, err := b.Subscribe(bg, "rai", "tasks", 1)
	if err != nil {
		t.Fatal(err)
	}
	id, err := b.Publish(bg, "rai", []byte("job-1"))
	if err != nil {
		t.Fatal(err)
	}
	m := recvTimeout(t, sub)
	if string(m.Body) != "job-1" || m.ID != id || m.Topic != "rai" {
		t.Fatalf("got %+v", m)
	}
	if m.Attempts != 1 {
		t.Errorf("Attempts = %d, want 1", m.Attempts)
	}
	if err := sub.Ack(bg, m); err != nil {
		t.Fatal(err)
	}
}

func TestBacklogDeliveredToFirstChannel(t *testing.T) {
	b := New()
	defer b.Close()
	// Worker publishes logs before the client subscribes (paper §V race).
	b.Publish(bg, "log_42#ch", []byte("early line"))
	if d := b.Depth("log_42#ch", "ch"); d != 1 {
		t.Fatalf("backlog depth = %d", d)
	}
	sub, _ := b.Subscribe(bg, "log_42#ch", "ch", 10)
	m := recvTimeout(t, sub)
	if string(m.Body) != "early line" {
		t.Fatalf("backlog message = %q", m.Body)
	}
}

func TestChannelLoadBalancing(t *testing.T) {
	b := New()
	defer b.Close()
	w1, _ := b.Subscribe(bg, "rai", "tasks", 100)
	w2, _ := b.Subscribe(bg, "rai", "tasks", 100)
	for i := 0; i < 10; i++ {
		b.Publish(bg, "rai", []byte{byte(i)})
	}
	count := func(s Consumer) int {
		n := 0
		for {
			select {
			case m := <-s.C():
				s.Ack(bg, m)
				n++
			default:
				return n
			}
		}
	}
	n1, n2 := count(w1), count(w2)
	if n1+n2 != 10 {
		t.Fatalf("delivered %d+%d, want 10 total (each message exactly once)", n1, n2)
	}
	if n1 != 5 || n2 != 5 {
		t.Errorf("round robin split %d/%d, want 5/5", n1, n2)
	}
}

func TestFanOutAcrossChannels(t *testing.T) {
	b := New()
	defer b.Close()
	c1, _ := b.Subscribe(bg, "events", "audit", 10)
	c2, _ := b.Subscribe(bg, "events", "grading", 10)
	b.Publish(bg, "events", []byte("submitted"))
	m1 := recvTimeout(t, c1)
	m2 := recvTimeout(t, c2)
	if string(m1.Body) != "submitted" || string(m2.Body) != "submitted" {
		t.Fatal("both channels must receive a copy")
	}
}

func TestMaxInFlightThrottles(t *testing.T) {
	b := New()
	defer b.Close()
	sub, _ := b.Subscribe(bg, "rai", "tasks", 2)
	for i := 0; i < 5; i++ {
		b.Publish(bg, "rai", []byte{byte(i)})
	}
	m1 := recvTimeout(t, sub)
	m2 := recvTimeout(t, sub)
	select {
	case <-sub.C():
		t.Fatal("third message delivered beyond maxInFlight=2")
	case <-time.After(50 * time.Millisecond):
	}
	if d := b.Depth("rai", "tasks"); d != 3 {
		t.Errorf("Depth = %d, want 3", d)
	}
	sub.Ack(bg, m1)
	m3 := recvTimeout(t, sub)
	if m3.ID == m2.ID {
		t.Fatal("redelivered an in-flight message")
	}
}

func TestRequeueRedelivers(t *testing.T) {
	b := New()
	defer b.Close()
	w1, _ := b.Subscribe(bg, "rai", "tasks", 1)
	b.Publish(bg, "rai", []byte("job"))
	m := recvTimeout(t, w1)
	if err := w1.Requeue(bg, m); err != nil {
		t.Fatal(err)
	}
	m2 := recvTimeout(t, w1)
	if m2.Attempts != 2 {
		t.Errorf("Attempts after requeue = %d, want 2", m2.Attempts)
	}
}

func TestCloseRequeuesInFlight(t *testing.T) {
	b := New()
	defer b.Close()
	w1, _ := b.Subscribe(bg, "rai", "tasks", 10)
	for i := 0; i < 3; i++ {
		b.Publish(bg, "rai", []byte{byte(i)})
	}
	// Receive one, leave two in the buffer, then crash the worker.
	first := recvTimeout(t, w1)
	_ = first
	w1.Close()
	// A replacement worker gets all three, in order.
	w2, _ := b.Subscribe(bg, "rai", "tasks", 10)
	var got []byte
	for i := 0; i < 3; i++ {
		m := recvTimeout(t, w2)
		got = append(got, m.Body[0])
		w2.Ack(bg, m)
	}
	if got[0] != 0 || got[1] != 1 || got[2] != 2 {
		t.Errorf("redelivery order = %v", got)
	}
}

// TestDeliveryIsBoundToOneAttempt: what a consumer holds is a value of
// that attempt. A closes un-acked, B gets the redelivery; A's message
// still says attempt 1, and settling through A's closed subscription is
// refused without touching B's delivery.
func TestDeliveryIsBoundToOneAttempt(t *testing.T) {
	b := New()
	defer b.Close()
	a, _ := b.Subscribe(bg, "rai", "tasks", 1)
	bSub, _ := b.Subscribe(bg, "rai", "tasks", 1)
	b.Publish(bg, "rai", []byte("job"))
	ma := recvTimeout(t, a)
	// A reads its message while the broker redelivers it (-race).
	read := make(chan int)
	go func() { read <- ma.Attempts }()
	a.Close()
	mb := recvTimeout(t, bSub)
	<-read
	if ma.Attempts != 1 || mb.Attempts != 2 || mb.ID != ma.ID {
		t.Fatalf("A holds attempt %d (want 1), B attempt %d (want 2) of id %d/%d", ma.Attempts, mb.Attempts, ma.ID, mb.ID)
	}
	if err := a.Ack(bg, ma); !errors.Is(err, ErrSubClosed) {
		t.Errorf("Ack through closed subscription = %v", err)
	}
	if err := a.Requeue(bg, ma); !errors.Is(err, ErrSubClosed) {
		t.Errorf("Requeue through closed subscription = %v", err)
	}
	if cs := b.Stats()[0].Channels[0]; cs.InFlight != 1 || cs.Depth != 0 {
		t.Errorf("after A's stale settlement: %+v, want B's delivery still in flight", cs)
	}
	if err := bSub.Ack(bg, mb); err != nil {
		t.Errorf("B's ack: %v", err)
	}
}

func TestEphemeralTopicGC(t *testing.T) {
	b := New()
	defer b.Close()
	sub, _ := b.Subscribe(bg, "log_7#ch", "ch", 10)
	b.Publish(bg, "log_7#ch", []byte("out"))
	recvTimeout(t, sub)
	if !b.HasTopic("log_7#ch") {
		t.Fatal("topic missing while subscribed")
	}
	sub.Close()
	if b.HasTopic("log_7#ch") {
		t.Error("ephemeral topic not garbage collected after last consumer left")
	}
}

func TestNonEphemeralTopicSurvives(t *testing.T) {
	b := New()
	defer b.Close()
	sub, _ := b.Subscribe(bg, "rai", "tasks", 1)
	sub.Close()
	if !b.HasTopic("rai") {
		t.Error("durable topic was garbage collected")
	}
}

func TestAckErrors(t *testing.T) {
	b := New()
	defer b.Close()
	sub, _ := b.Subscribe(bg, "rai", "tasks", 1)
	bogus := &Message{ID: 999}
	if err := sub.Ack(bg, bogus); !errors.Is(err, ErrUnknownMsg) {
		t.Errorf("Ack(unknown) = %v", err)
	}
	if err := sub.Requeue(bg, bogus); !errors.Is(err, ErrUnknownMsg) {
		t.Errorf("Requeue(unknown) = %v", err)
	}
	sub.Close()
	if err := sub.Ack(bg, bogus); !errors.Is(err, ErrSubClosed) {
		t.Errorf("Ack after close = %v", err)
	}
	if err := sub.Close(); err != nil {
		t.Errorf("double close = %v", err)
	}
}

func TestBadNames(t *testing.T) {
	b := New()
	defer b.Close()
	for _, name := range []string{"", "has space", "semi;colon", "x/y", string(make([]byte, 200))} {
		if _, err := b.Publish(bg, name, nil); !errors.Is(err, ErrBadName) {
			t.Errorf("Publish(%q) = %v", name, err)
		}
		if _, err := b.Subscribe(bg, name, "c", 1); !errors.Is(err, ErrBadName) {
			t.Errorf("Subscribe(%q) = %v", name, err)
		}
	}
}

func TestClosedBrokerRejects(t *testing.T) {
	b := New()
	sub, _ := b.Subscribe(bg, "rai", "tasks", 1)
	b.Close()
	if _, err := b.Publish(bg, "rai", nil); !errors.Is(err, ErrClosed) {
		t.Errorf("Publish after close = %v", err)
	}
	if _, err := b.Subscribe(bg, "rai", "tasks", 1); !errors.Is(err, ErrClosed) {
		t.Errorf("Subscribe after close = %v", err)
	}
	if _, ok := <-sub.C(); ok {
		t.Error("subscription channel not closed")
	}
}

func TestDeleteTopic(t *testing.T) {
	b := New()
	defer b.Close()
	sub, _ := b.Subscribe(bg, "rai", "tasks", 1)
	if err := b.DeleteTopic("rai"); err != nil {
		t.Fatal(err)
	}
	if _, ok := <-sub.C(); ok {
		t.Error("subscriber channel still open after DeleteTopic")
	}
	if err := b.DeleteTopic("rai"); !errors.Is(err, ErrTopicMissing) {
		t.Errorf("second delete = %v", err)
	}
}

func TestStatsSnapshot(t *testing.T) {
	b := New()
	defer b.Close()
	sub, _ := b.Subscribe(bg, "rai", "tasks", 1)
	b.Publish(bg, "rai", []byte("a"))
	b.Publish(bg, "rai", []byte("b"))
	recvTimeout(t, sub) // one in flight, one queued
	stats := b.Stats()
	if len(stats) != 1 || stats[0].Topic != "rai" {
		t.Fatalf("stats = %+v", stats)
	}
	cs := stats[0].Channels[0]
	if cs.Depth != 1 || cs.InFlight != 1 || cs.Subscribers != 1 {
		t.Errorf("channel stats = %+v", cs)
	}
}

func TestPublishBodyIsCopied(t *testing.T) {
	b := New()
	defer b.Close()
	sub, _ := b.Subscribe(bg, "rai", "tasks", 1)
	body := []byte("abc")
	b.Publish(bg, "rai", body)
	body[0] = 'X'
	m := recvTimeout(t, sub)
	if string(m.Body) != "abc" {
		t.Error("broker aliased the publisher's buffer")
	}
}

func TestMessageTimestampUsesClock(t *testing.T) {
	start := time.Date(2016, 12, 1, 12, 0, 0, 0, time.UTC)
	vc := clock.NewVirtual(start)
	b := New(WithClock(vc))
	defer b.Close()
	sub, _ := b.Subscribe(bg, "rai", "tasks", 1)
	vc.Advance(42 * time.Minute)
	b.Publish(bg, "rai", nil)
	m := recvTimeout(t, sub)
	if !m.Timestamp.Equal(start.Add(42 * time.Minute)) {
		t.Errorf("Timestamp = %v", m.Timestamp)
	}
}

func TestConcurrentProducersConsumers(t *testing.T) {
	b := New()
	defer b.Close()
	const producers, perProducer, workers = 8, 50, 4
	var wg sync.WaitGroup
	received := make(chan string, producers*perProducer)
	for w := 0; w < workers; w++ {
		sub, err := b.Subscribe(bg, "rai", "tasks", 4)
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(sub Consumer) {
			defer wg.Done()
			for m := range sub.C() {
				received <- string(m.Body)
				sub.Ack(bg, m)
				if len(received) == producers*perProducer {
					return
				}
			}
		}(sub)
	}
	for p := 0; p < producers; p++ {
		go func(p int) {
			for i := 0; i < perProducer; i++ {
				b.Publish(bg, "rai", []byte(fmt.Sprintf("%d-%d", p, i)))
			}
		}(p)
	}
	seen := map[string]bool{}
	for i := 0; i < producers*perProducer; i++ {
		select {
		case s := <-received:
			if seen[s] {
				t.Fatalf("duplicate delivery of %s", s)
			}
			seen[s] = true
		case <-time.After(5 * time.Second):
			t.Fatalf("stalled after %d messages", i)
		}
	}
	b.Close()
	wg.Wait()
}
