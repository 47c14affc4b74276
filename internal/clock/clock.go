// Package clock provides a clock abstraction so the same code can run
// against the real wall clock in production daemons and against a
// deterministic virtual clock in simulations and tests.
//
// The virtual clock is the backbone of the reproduction harness: every
// simulated component (workers, the provisioner, the workload generator)
// advances through the same timeline, which makes figures such as the
// submissions-per-hour series of the paper's Figure 4 bit-reproducible.
package clock

import (
	"container/heap"
	"sync"
	"time"
)

// Clock is the minimal time source used throughout the repository.
type Clock interface {
	// Now returns the current time on this clock.
	Now() time.Time
	// After returns a channel that delivers the clock's time once d has
	// elapsed on this clock.
	After(d time.Duration) <-chan time.Time
}

// Real is the wall clock. Its zero value is usable.
type Real struct{}

// Now implements Clock.
func (Real) Now() time.Time { return time.Now() }

// After implements Clock.
func (Real) After(d time.Duration) <-chan time.Time { return time.After(d) }

// Virtual is a manually advanced clock. Time moves only when Advance or
// AdvanceTo is called; timers created by After fire when the clock
// passes their deadline. Virtual is safe for concurrent use.
type Virtual struct {
	mu     sync.Mutex
	now    time.Time
	timers timerHeap
	seq    int64
}

// NewVirtual returns a virtual clock positioned at start.
func NewVirtual(start time.Time) *Virtual {
	return &Virtual{now: start}
}

// Now implements Clock.
func (v *Virtual) Now() time.Time {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.now
}

// After implements Clock. The returned channel has capacity 1 so firing
// never blocks the advancing goroutine.
func (v *Virtual) After(d time.Duration) <-chan time.Time {
	ch := make(chan time.Time, 1)
	v.mu.Lock()
	defer v.mu.Unlock()
	if d <= 0 {
		ch <- v.now
		return ch
	}
	v.seq++
	heap.Push(&v.timers, &timer{at: v.now.Add(d), seq: v.seq, ch: ch})
	return ch
}

// Advance moves the clock forward by d, firing due timers in order.
func (v *Virtual) Advance(d time.Duration) {
	v.AdvanceTo(v.Now().Add(d))
}

// AdvanceTo moves the clock to t (no-op if t is not after the current
// time), firing due timers in deadline order.
func (v *Virtual) AdvanceTo(t time.Time) {
	v.mu.Lock()
	defer v.mu.Unlock()
	if !t.After(v.now) {
		return
	}
	for len(v.timers) > 0 && !v.timers[0].at.After(t) {
		tm := heap.Pop(&v.timers).(*timer)
		v.now = tm.at
		tm.ch <- tm.at
	}
	v.now = t
}

// PendingTimers reports how many timers have not fired yet.
func (v *Virtual) PendingTimers() int {
	v.mu.Lock()
	defer v.mu.Unlock()
	return len(v.timers)
}

// NextDeadline returns the deadline of the earliest pending timer and
// whether one exists.
func (v *Virtual) NextDeadline() (time.Time, bool) {
	v.mu.Lock()
	defer v.mu.Unlock()
	if len(v.timers) == 0 {
		return time.Time{}, false
	}
	return v.timers[0].at, true
}

type timer struct {
	at  time.Time
	seq int64
	ch  chan time.Time
}

type timerHeap []*timer

func (h timerHeap) Len() int { return len(h) }
func (h timerHeap) Less(i, j int) bool {
	if h[i].at.Equal(h[j].at) {
		return h[i].seq < h[j].seq
	}
	return h[i].at.Before(h[j].at)
}
func (h timerHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *timerHeap) Push(x any)   { *h = append(*h, x.(*timer)) }
func (h *timerHeap) Pop() any     { old := *h; n := len(old); t := old[n-1]; *h = old[:n-1]; return t }
