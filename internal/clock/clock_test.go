package clock

import (
	"sync"
	"testing"
	"time"
)

var epoch = time.Date(2016, 11, 28, 0, 0, 0, 0, time.UTC)

func TestVirtualNow(t *testing.T) {
	v := NewVirtual(epoch)
	if got := v.Now(); !got.Equal(epoch) {
		t.Fatalf("Now() = %v, want %v", got, epoch)
	}
	v.Advance(90 * time.Minute)
	if got := v.Now(); !got.Equal(epoch.Add(90 * time.Minute)) {
		t.Fatalf("after Advance, Now() = %v", got)
	}
}

func TestVirtualAdvanceToBackwardIsNoop(t *testing.T) {
	v := NewVirtual(epoch)
	v.AdvanceTo(epoch.Add(-time.Hour))
	if got := v.Now(); !got.Equal(epoch) {
		t.Fatalf("backward AdvanceTo moved the clock to %v", got)
	}
}

func TestVirtualAfterFiresAtDeadline(t *testing.T) {
	v := NewVirtual(epoch)
	ch := v.After(10 * time.Second)
	select {
	case <-ch:
		t.Fatal("timer fired before the clock advanced")
	default:
	}
	v.Advance(9 * time.Second)
	select {
	case <-ch:
		t.Fatal("timer fired 1s early")
	default:
	}
	v.Advance(time.Second)
	select {
	case at := <-ch:
		want := epoch.Add(10 * time.Second)
		if !at.Equal(want) {
			t.Fatalf("timer delivered %v, want %v", at, want)
		}
	default:
		t.Fatal("timer did not fire at its deadline")
	}
}

func TestVirtualAfterZeroFiresImmediately(t *testing.T) {
	v := NewVirtual(epoch)
	select {
	case <-v.After(0):
	default:
		t.Fatal("After(0) did not fire immediately")
	}
}

func TestVirtualTimersFireInOrder(t *testing.T) {
	v := NewVirtual(epoch)
	var order []int
	var mu sync.Mutex
	var wg sync.WaitGroup
	for i, d := range []time.Duration{3 * time.Second, time.Second, 2 * time.Second} {
		wg.Add(1)
		go func(i int, ch <-chan time.Time) {
			defer wg.Done()
			at := <-ch
			mu.Lock()
			order = append(order, i)
			mu.Unlock()
			_ = at
		}(i, v.After(d))
	}
	// Advance step by step so goroutine wake-ups serialize per deadline.
	for s := 1; s <= 3; s++ {
		v.Advance(time.Second)
		// Each step fires exactly one timer; wait for it to record.
		deadline := time.Now().Add(2 * time.Second)
		for {
			mu.Lock()
			n := len(order)
			mu.Unlock()
			if n >= s || time.Now().After(deadline) {
				break
			}
			time.Sleep(time.Millisecond)
		}
	}
	wg.Wait()
	want := []int{1, 2, 0}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("timers fired in order %v, want %v", order, want)
		}
	}
}

func TestVirtualPendingTimers(t *testing.T) {
	v := NewVirtual(epoch)
	_ = v.After(time.Minute)
	_ = v.After(time.Hour)
	if got := v.PendingTimers(); got != 2 {
		t.Fatalf("PendingTimers = %d, want 2", got)
	}
	dl, ok := v.NextDeadline()
	if !ok || !dl.Equal(epoch.Add(time.Minute)) {
		t.Fatalf("NextDeadline = %v,%v", dl, ok)
	}
	v.Advance(time.Minute)
	if got := v.PendingTimers(); got != 1 {
		t.Fatalf("after firing one, PendingTimers = %d, want 1", got)
	}
}

func TestVirtualAfterWakesBlockedGoroutine(t *testing.T) {
	v := NewVirtual(epoch)
	done := make(chan struct{})
	go func() {
		<-v.After(5 * time.Second)
		close(done)
	}()
	// Let the waiter register its timer.
	for v.PendingTimers() == 0 {
		time.Sleep(time.Millisecond)
	}
	v.Advance(5 * time.Second)
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("After did not fire after Advance")
	}
}

func TestRealClockBasics(t *testing.T) {
	var r Real
	before := time.Now()
	now := r.Now()
	if now.Before(before.Add(-time.Second)) {
		t.Fatalf("Real.Now() = %v is far behind wall clock %v", now, before)
	}
	select {
	case <-r.After(time.Millisecond):
	case <-time.After(2 * time.Second):
		t.Fatal("Real.After(1ms) did not fire")
	}
}
