package collector

import (
	"context"
	"testing"
	"time"

	"rai/internal/clock"
	"rai/internal/core"
	"rai/internal/docstore"
	"rai/internal/telemetry"
)

// TestSweepExpired deletes exactly the documents older than the cutoff.
func TestSweepExpired(t *testing.T) {
	db := docstore.New()
	c := &Collector{DB: db}
	ctx := context.Background()
	c.Persist(ctx, &Batch{Service: "rai",
		Spans: []telemetry.SpanData{
			span("tr-old", "s1", "", "job", 0, time.Second, nil),
			span("tr-new", "s2", "", "job", 2*time.Hour, 2*time.Hour+time.Second, nil),
		},
		Events: []telemetry.Event{
			{Time: t0, Level: "info", Msg: "old"},
			{Time: t0.Add(2 * time.Hour), Level: "info", Msg: "new"},
		},
	})

	cutoff := unixSeconds(t0.Add(time.Hour))
	if n, err := c.SweepExpired(ctx, core.CollTraces, "start_s", cutoff); err != nil || n != 1 {
		t.Fatalf("traces sweep: n=%d err=%v, want 1 nil", n, err)
	}
	if n, err := c.SweepExpired(ctx, core.CollEvents, "ts_s", cutoff); err != nil || n != 1 {
		t.Fatalf("events sweep: n=%d err=%v, want 1 nil", n, err)
	}
	if _, err := db.FindOne(context.Background(), core.CollTraces, docstore.M{"trace_id": "tr-old"}); err == nil {
		t.Error("expired span survived the sweep")
	}
	if _, err := db.FindOne(context.Background(), core.CollTraces, docstore.M{"trace_id": "tr-new"}); err != nil {
		t.Errorf("fresh span deleted: %v", err)
	}
	if _, err := db.FindOne(context.Background(), core.CollEvents, docstore.M{"msg": "new"}); err != nil {
		t.Errorf("fresh event deleted: %v", err)
	}
}

// TestRunRetention drives the sweep loop on a virtual clock: documents
// age past the horizon and disappear on the next tick.
func TestRunRetention(t *testing.T) {
	db := docstore.New()
	clk := clock.NewVirtual(t0)
	reg := telemetry.NewRegistry()
	c := &Collector{DB: db, Telemetry: reg, Clock: clk}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	c.Persist(ctx, &Batch{Service: "rai",
		Spans:  []telemetry.SpanData{span("tr1", "s1", "", "job", 0, time.Second, nil)},
		Events: []telemetry.Event{{Time: t0, Level: "info", Msg: "hello"}},
	})

	done := make(chan struct{})
	go func() {
		c.RunRetention(ctx, RetentionConfig{Retain: time.Hour, Interval: time.Minute})
		close(done)
	}()
	// Let the loop register its timer before advancing past it.
	waitTimers(t, clk, 1)

	// First tick: documents are younger than the horizon and survive.
	clk.Advance(time.Minute)
	waitSweeps(t, reg, 1)
	if _, err := db.FindOne(context.Background(), core.CollTraces, docstore.M{"trace_id": "tr1"}); err != nil {
		t.Fatalf("fresh span swept: %v", err)
	}

	// Age everything past the horizon; the next tick reaps both docs.
	// (Whether the loop's pending timer fires during this advance or
	// after the next one depends on goroutine timing, so poll the store
	// rather than count ticks.)
	clk.Advance(2 * time.Hour)
	waitTimers(t, clk, 1)
	clk.Advance(time.Minute)
	deadline := time.Now().Add(5 * time.Second)
	for {
		_, errT := db.FindOne(context.Background(), core.CollTraces, docstore.M{"trace_id": "tr1"})
		_, errE := db.FindOne(context.Background(), core.CollEvents, docstore.M{"msg": "hello"})
		if errT != nil && errE != nil {
			break // both reaped
		}
		if time.Now().After(deadline) {
			t.Fatalf("expired docs survived the retention loop (trace err %v, event err %v)", errT, errE)
		}
		time.Sleep(time.Millisecond)
	}
	if v, _ := reg.Value("rai_collector_retention_deleted_total", telemetry.L("coll", core.CollTraces)); v != 1 {
		t.Errorf("deleted{traces} = %v, want 1", v)
	}

	cancel()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("retention loop did not stop")
	}
}

// TestRunRetentionDisabled returns immediately when Retain is zero.
func TestRunRetentionDisabled(t *testing.T) {
	c := &Collector{DB: docstore.New()}
	done := make(chan struct{})
	go func() {
		c.RunRetention(context.Background(), RetentionConfig{})
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("zero-retain loop did not return")
	}
}

func waitTimers(t *testing.T, clk *clock.Virtual, n int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for clk.PendingTimers() < n {
		if time.Now().After(deadline) {
			t.Fatalf("never saw %d pending timers", n)
		}
		time.Sleep(time.Millisecond)
	}
}

func waitSweeps(t *testing.T, reg *telemetry.Registry, n float64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if v, _ := reg.Value("rai_collector_retention_sweeps_total"); v >= n {
			return
		}
		if time.Now().After(deadline) {
			v, _ := reg.Value("rai_collector_retention_sweeps_total")
			t.Fatalf("sweeps = %v, want >= %v", v, n)
		}
		time.Sleep(time.Millisecond)
	}
}
