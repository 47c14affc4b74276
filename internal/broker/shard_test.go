package broker

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
)

// TestExportQueueDepthWithoutTelemetry is the regression test for the
// nil-telemetry guard: a broker built without WithTelemetry must treat
// ExportQueueDepth as a no-op instead of touching a nil registry.
func TestExportQueueDepthWithoutTelemetry(t *testing.T) {
	b := New()
	defer b.Close()
	b.ExportQueueDepth("rai", "tasks") // must not panic
	if _, err := b.Publish(bg, "rai", []byte("x")); err != nil {
		t.Fatal(err)
	}
}

// TestRoundRobinCursorSurvivesRemoval pins the cursor semantics: when a
// subscriber below the cursor leaves mid-rotation, the next delivery
// still goes to the subscriber the cursor pointed at (previously the
// cursor kept its absolute index, skipping one subscriber per removal).
func TestRoundRobinCursorSurvivesRemoval(t *testing.T) {
	b := New()
	defer b.Close()
	subs := make([]Consumer, 4)
	for i := range subs {
		s, err := b.Subscribe(bg, "rai", "tasks", 10)
		if err != nil {
			t.Fatal(err)
		}
		subs[i] = s
	}
	// Two deliveries advance the rotation to subs[2]. Ack both so
	// nothing is requeued when subs[0] leaves.
	b.Publish(bg, "rai", []byte("a")) // -> subs[0]
	b.Publish(bg, "rai", []byte("b")) // -> subs[1]
	subs[0].Ack(bg, recvTimeout(t, subs[0]))
	subs[1].Ack(bg, recvTimeout(t, subs[1]))

	subs[0].Close() // removal below the cursor

	b.Publish(bg, "rai", []byte("c"))
	got := -1
	for i, s := range subs[1:] {
		select {
		case <-s.C():
			got = i + 1
		default:
		}
	}
	if got != 2 {
		t.Fatalf("post-removal delivery went to subs[%d], want subs[2]", got)
	}
}

// TestRoundRobinDistributionUnderChurn measures delivery counts across
// two stable workers while a third churns (subscribe, receive, close) —
// the ephemeral-worker pattern. Fair rotation keeps the stable workers
// within one delivery of each other; the pre-fix cursor drift skews
// toward one of them.
func TestRoundRobinDistributionUnderChurn(t *testing.T) {
	b := New()
	defer b.Close()
	counts := [2]int{}
	churn, err := b.Subscribe(bg, "rai", "tasks", 100)
	if err != nil {
		t.Fatal(err)
	}
	var stable [2]Consumer
	for i := range stable {
		if stable[i], err = b.Subscribe(bg, "rai", "tasks", 100); err != nil {
			t.Fatal(err)
		}
	}
	drainStable := func() {
		for i, s := range stable {
			for {
				select {
				case m := <-s.C():
					counts[i]++
					s.Ack(bg, m)
				default:
					goto next
				}
			}
		next:
		}
	}
	for round := 0; round < 60; round++ {
		// Three messages: one per live subscriber, rotation order.
		for k := 0; k < 3; k++ {
			if _, err := b.Publish(bg, "rai", []byte{byte(k)}); err != nil {
				t.Fatal(err)
			}
		}
		// The churner acks what it got and is replaced (its slot index is
		// below the stable workers' whenever it rotated first).
		for {
			select {
			case m := <-churn.C():
				churn.Ack(bg, m)
			default:
				goto replace
			}
		}
	replace:
		drainStable()
		churn.Close()
		if churn, err = b.Subscribe(bg, "rai", "tasks", 100); err != nil {
			t.Fatal(err)
		}
	}
	drainStable()
	diff := counts[0] - counts[1]
	if diff < 0 {
		diff = -diff
	}
	if counts[0]+counts[1] < 60 {
		t.Fatalf("stable workers saw too little traffic: %v", counts)
	}
	if diff > 2 {
		t.Fatalf("stable workers drifted apart: %v (diff %d)", counts, diff)
	}
}

// TestConcurrentMultiTopicChurn is the sharded broker's -race property
// test: goroutines hammer disjoint ephemeral topics (publish, ack,
// requeue, close) while others share one durable topic, and every
// published message must be settled exactly once on its topic.
func TestConcurrentMultiTopicChurn(t *testing.T) {
	b := New()
	defer b.Close()
	const workers, rounds, perRound = 8, 20, 5
	var wg sync.WaitGroup
	errs := make(chan error, workers*2)

	// Ephemeral-topic workers: each owns log_N#ch and churns it.
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for r := 0; r < rounds; r++ {
				topic := fmt.Sprintf("log_%d#ch", w)
				sub, err := b.Subscribe(bg, topic, "ch", 4)
				if err != nil {
					errs <- err
					return
				}
				for i := 0; i < perRound; i++ {
					if _, err := b.Publish(bg, topic, []byte{byte(i)}); err != nil {
						errs <- err
						return
					}
				}
				settled := 0
				for settled < perRound {
					m := <-sub.C()
					if rng.Intn(4) == 0 {
						if err := sub.Requeue(bg, m); err != nil {
							errs <- err
							return
						}
						continue
					}
					if err := sub.Ack(bg, m); err != nil {
						errs <- err
						return
					}
					settled++
				}
				sub.Close()
			}
		}(w)
	}

	// Shared-topic workers: load-balanced consumption on rai/tasks.
	var delivered sync.Map
	total := workers * rounds
	var consumed sync.WaitGroup
	consumed.Add(total)
	for w := 0; w < 2; w++ {
		sub, err := b.Subscribe(bg, "rai", "tasks", 8)
		if err != nil {
			t.Fatal(err)
		}
		go func(sub Consumer) {
			for m := range sub.C() {
				if _, dup := delivered.LoadOrStore(string(m.Body), true); dup {
					errs <- fmt.Errorf("duplicate delivery %q", m.Body)
					return
				}
				sub.Ack(bg, m)
				consumed.Done()
			}
		}(sub)
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				if _, err := b.Publish(bg, "rai", []byte(fmt.Sprintf("%d-%d", w, r))); err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}

	wg.Wait()
	consumed.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	// Every ephemeral topic must have been garbage collected.
	for w := 0; w < workers; w++ {
		if b.HasTopic(fmt.Sprintf("log_%d#ch", w)) {
			t.Fatalf("ephemeral topic log_%d#ch leaked", w)
		}
	}
}
