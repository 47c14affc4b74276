package broker

import (
	"fmt"
	"testing"
	"testing/quick"
	"time"
)

// TestQuickMessageConservation is the broker's core safety property:
// under any interleaving of publishes, acks, requeues, and subscriber
// churn, every published message is delivered (to completion) exactly
// once per channel — nothing lost, nothing duplicated.
func TestQuickMessageConservation(t *testing.T) {
	type op struct {
		Kind    uint8 // publish / deliver+ack / deliver+requeue / churn
		Payload uint16
	}
	prop := func(ops []op) bool {
		b := New()
		defer b.Close()
		sub, err := b.Subscribe(bg, "rai", "tasks", 4)
		if err != nil {
			return false
		}
		published := map[string]int{}
		acked := map[string]int{}
		recv := func(s Consumer) (*Message, bool) {
			select {
			case m, ok := <-s.C():
				return m, ok
			case <-time.After(time.Second):
				return nil, false
			}
		}
		for i, o := range ops {
			switch o.Kind % 4 {
			case 0: // publish
				body := fmt.Sprintf("msg-%d-%d", i, o.Payload)
				if _, err := b.Publish(bg, "rai", []byte(body)); err != nil {
					return false
				}
				published[body]++
			case 1: // deliver and ack
				if b.Depth("rai", "tasks") == 0 && inFlight(b) == 0 {
					continue
				}
				m, ok := recv(sub)
				if !ok {
					return false
				}
				if err := sub.Ack(bg, m); err != nil {
					return false
				}
				acked[string(m.Body)]++
			case 2: // deliver and requeue (simulated worker hiccup)
				if b.Depth("rai", "tasks") == 0 && inFlight(b) == 0 {
					continue
				}
				m, ok := recv(sub)
				if !ok {
					return false
				}
				if err := sub.Requeue(bg, m); err != nil {
					return false
				}
			case 3: // subscriber churn (crash + replacement)
				sub.Close()
				var err error
				sub, err = b.Subscribe(bg, "rai", "tasks", 4)
				if err != nil {
					return false
				}
			}
		}
		// Drain everything left and ack it.
		for {
			if b.Depth("rai", "tasks") == 0 && inFlight(b) == 0 {
				break
			}
			m, ok := recv(sub)
			if !ok {
				return false
			}
			if err := sub.Ack(bg, m); err != nil {
				return false
			}
			acked[string(m.Body)]++
		}
		// Conservation: every published body acked exactly once.
		if len(acked) != len(published) {
			return false
		}
		for body, n := range published {
			if n != 1 || acked[body] != 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// inFlight sums in-flight counts across the rai/tasks channel.
func inFlight(b *Broker) int {
	for _, ts := range b.Stats() {
		if ts.Topic != "rai" {
			continue
		}
		for _, cs := range ts.Channels {
			if cs.Channel == "tasks" {
				return cs.InFlight
			}
		}
	}
	return 0
}
