package collector

import (
	"context"
	"fmt"
	"testing"
	"time"

	"rai/internal/broker"
	"rai/internal/clock"
	"rai/internal/core"
	"rai/internal/docstore"
	"rai/internal/telemetry"
)

func newTestTail(cfg TailConfig) (*tailBuffer, *clock.Virtual, *telemetry.Registry) {
	clk := clock.NewVirtual(t0)
	reg := telemetry.NewRegistry()
	return newTailBuffer(cfg, clk, reg), clk, reg
}

func counterValue(t *testing.T, reg *telemetry.Registry, name string, labels ...telemetry.Label) float64 {
	t.Helper()
	v, _ := reg.Value(name, labels...)
	return v
}

// TestTailKeepsErrorTraces: a trace with any error marker survives even
// at KeepRate 0 — the whole point of deciding at the tail.
func TestTailKeepsErrorTraces(t *testing.T) {
	for _, mark := range []map[string]string{
		{"status": "failed"},
		{"status": "rejected"},
		{"error": "exploded"},
	} {
		tail, clk, reg := newTestTail(TailConfig{Linger: time.Second, KeepRate: 0})
		tail.add("raiworker", span("tr-err", "s1", "", "job", 0, time.Second, mark))
		tail.add("raiworker", span("tr-err", "s2", "s1", "run", 0, time.Second, nil))
		tail.add("rai", span("tr-ok", "s3", "", "job", 0, time.Second, nil))
		clk.Advance(2 * time.Second)
		kept := tail.evict(false)
		if len(kept) != 2 {
			t.Fatalf("mark %v: kept %d spans, want the 2 error-trace spans", mark, len(kept))
		}
		for _, r := range kept {
			if r.data.TraceID != "tr-err" {
				t.Fatalf("mark %v: kept wrong trace %s", mark, r.data.TraceID)
			}
		}
		if got := counterValue(t, reg, "rai_collector_tail_kept_total", telemetry.L("reason", tailReasonError)); got != 1 {
			t.Errorf("mark %v: kept{error} = %v, want 1", mark, got)
		}
		if got := counterValue(t, reg, "rai_collector_tail_dropped_total"); got != 1 {
			t.Errorf("mark %v: dropped = %v, want 1", mark, got)
		}
	}
}

// TestTailKeepsSlowTraces: once enough root durations have been
// observed, traces at or above the slow quantile survive KeepRate 0.
func TestTailKeepsSlowTraces(t *testing.T) {
	tail, clk, reg := newTestTail(TailConfig{
		Linger: time.Second, KeepRate: 0, SlowQuantile: 0.9, MinSamples: 8,
	})
	// Warm the distribution with 20 fast traces spread over 10-48 ms (a
	// degenerate all-equal distribution would put everything at p90).
	for i := 0; i < 20; i++ {
		id := fmt.Sprintf("warm-%d", i)
		tail.add("rai", span(id, id+"-s", "", "job", 0, time.Duration(10+2*i)*time.Millisecond, nil))
	}
	clk.Advance(2 * time.Second)
	tail.evict(false)

	// Now one glacial trace and one more fast one.
	tail.add("rai", span("tr-slow", "sl", "", "job", 0, 10*time.Second, nil))
	tail.add("rai", span("tr-fast", "fa", "", "job", 0, 10*time.Millisecond, nil))
	clk.Advance(2 * time.Second)
	kept := tail.evict(false)
	if len(kept) != 1 || kept[0].data.TraceID != "tr-slow" {
		t.Fatalf("kept = %v, want only tr-slow", kept)
	}
	if got := counterValue(t, reg, "rai_collector_tail_kept_total", telemetry.L("reason", tailReasonSlow)); got != 1 {
		t.Errorf("kept{slow} = %v, want 1", got)
	}
}

// TestTailColdStartDoesNotGuessSlow: before MinSamples observations the
// slow detector must stay quiet instead of flagging everything slow.
func TestTailColdStartDoesNotGuessSlow(t *testing.T) {
	tail, clk, reg := newTestTail(TailConfig{Linger: time.Second, KeepRate: 0, MinSamples: 100})
	for i := 0; i < 10; i++ {
		id := fmt.Sprintf("tr-%d", i)
		tail.add("rai", span(id, id+"-s", "", "job", 0, time.Duration(i+1)*time.Second, nil))
	}
	clk.Advance(2 * time.Second)
	if kept := tail.evict(false); len(kept) != 0 {
		t.Fatalf("cold tail kept %d spans, want 0", len(kept))
	}
	if got := counterValue(t, reg, "rai_collector_tail_kept_total", telemetry.L("reason", tailReasonSlow)); got != 0 {
		t.Errorf("kept{slow} = %v before MinSamples, want 0", got)
	}
}

// TestTailDownsamplesBoring: boring traces are kept at roughly KeepRate,
// and every decision is counted — kept + dropped == decided.
func TestTailDownsamplesBoring(t *testing.T) {
	tail, clk, reg := newTestTail(TailConfig{Linger: time.Second, KeepRate: 0.5, MinSamples: 1 << 30})
	const n = 400
	for i := 0; i < n; i++ {
		id := fmt.Sprintf("tr-%d", i)
		tail.add("rai", span(id, id+"-s", "", "job", 0, time.Second, nil))
	}
	clk.Advance(2 * time.Second)
	kept := tail.evict(false)
	sampled := counterValue(t, reg, "rai_collector_tail_kept_total", telemetry.L("reason", tailReasonSampled))
	dropped := counterValue(t, reg, "rai_collector_tail_dropped_total")
	if sampled+dropped != n {
		t.Fatalf("kept %v + dropped %v != %d decided", sampled, dropped, n)
	}
	if int(sampled) != len(kept) {
		t.Fatalf("kept counter %v disagrees with %d returned spans", sampled, len(kept))
	}
	// 5-sigma band around the binomial mean, same tolerance the sampler
	// tests use.
	if sampled < 100 || sampled > 300 {
		t.Errorf("kept %v of %d at rate 0.5 — hash badly biased", sampled, n)
	}
	if spans := counterValue(t, reg, "rai_collector_tail_spans_dropped_total"); spans != dropped {
		t.Errorf("spans_dropped = %v, want %v (one span per trace)", spans, dropped)
	}
}

// TestTailLingerRestartsOnNewSpans: a trace still receiving spans must
// not be evicted mid-flight.
func TestTailLingerRestartsOnNewSpans(t *testing.T) {
	tail, clk, _ := newTestTail(TailConfig{Linger: time.Second, KeepRate: 1})
	tail.add("rai", span("tr1", "s1", "", "job", 0, time.Second, nil))
	clk.Advance(900 * time.Millisecond)
	tail.add("raiworker", span("tr1", "s2", "s1", "run", 0, time.Second, nil))
	clk.Advance(900 * time.Millisecond)
	if kept := tail.evict(false); len(kept) != 0 {
		t.Fatalf("trace evicted %d spans while still active", len(kept))
	}
	clk.Advance(200 * time.Millisecond)
	if kept := tail.evict(false); len(kept) != 2 {
		t.Fatalf("idle trace kept %d spans, want 2", len(kept))
	}
}

// TestCollectorRunWithTail drives the full Run loop: error and boring
// traces arrive over the broker, and only the error trace (plus every
// event) reaches the store. Uses a real clock with a short linger — the
// Run loop owns its timers, so this is the honest integration check.
func TestCollectorRunWithTail(t *testing.T) {
	b := broker.New()
	defer b.Close()
	db := docstore.New()
	reg := telemetry.NewRegistry()
	c := &Collector{
		Queue: b, DB: db, Telemetry: reg,
		Tail: TailConfig{Linger: 20 * time.Millisecond, KeepRate: 0, MinSamples: 1 << 30},
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() { done <- c.Run(ctx) }()

	batch := &Batch{
		Service: "raiworker",
		Spans: []telemetry.SpanData{
			span("tr-err", "s1", "", "job", 0, time.Second, map[string]string{"status": "failed", "job_id": "j1"}),
			span("tr-ok", "s2", "", "job", 0, time.Second, map[string]string{"job_id": "j2"}),
		},
		Events: []telemetry.Event{{
			Time: t0, Level: "info", Msg: "job dequeued", TraceID: "tr-ok", JobID: "j2",
		}},
	}
	if _, err := b.Publish(ctx, core.TelemetryTopic, batch.Encode()); err != nil {
		t.Fatal(err)
	}

	deadline := time.Now().Add(5 * time.Second)
	for {
		if doc, err := db.FindOne(context.Background(), core.CollTraces, docstore.M{"trace_id": "tr-err"}); err == nil {
			if doc["span_id"] != "s1" {
				t.Fatalf("error span doc = %v", doc)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("error trace never persisted")
		}
		time.Sleep(time.Millisecond)
	}
	// Events must have landed immediately, not waited on the tail.
	if evs, err := EventsByJob(context.Background(), db, "j2", 0); err != nil || len(evs) != 1 {
		t.Fatalf("events = %v (err %v), want 1", evs, err)
	}
	// The boring trace must be gone for good.
	if _, err := db.FindOne(context.Background(), core.CollTraces, docstore.M{"trace_id": "tr-ok"}); err == nil {
		t.Fatal("boring trace persisted despite KeepRate 0")
	}
	if got := counterValue(t, reg, "rai_collector_tail_dropped_total"); got != 1 {
		t.Errorf("dropped = %v, want 1", got)
	}
	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("Run: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("collector did not stop on ctx cancel")
	}
}

// TestCollectorShutdownFlushesTail: traces still lingering when ctx is
// canceled must be decided and persisted, not dropped on the floor.
func TestCollectorShutdownFlushesTail(t *testing.T) {
	b := broker.New()
	defer b.Close()
	db := docstore.New()
	reg := telemetry.NewRegistry()
	c := &Collector{
		Queue: b, DB: db, Telemetry: reg,
		// Hour-long linger: nothing evicts except the shutdown flush.
		Tail: TailConfig{Linger: time.Hour, KeepRate: 1},
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- c.Run(ctx) }()

	batch := &Batch{Service: "rai", Spans: []telemetry.SpanData{
		span("tr1", "s1", "", "job", 0, time.Second, map[string]string{"job_id": "j1"}),
	}}
	if _, err := b.Publish(ctx, core.TelemetryTopic, batch.Encode()); err != nil {
		t.Fatal(err)
	}
	// Wait for the batch to be buffered (the pending gauge flips to 1).
	deadline := time.Now().Add(5 * time.Second)
	for {
		if v, _ := reg.Value("rai_collector_tail_pending"); v == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("batch never buffered")
		}
		time.Sleep(time.Millisecond)
	}
	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("Run: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("collector did not stop")
	}
	if _, err := db.FindOne(context.Background(), core.CollTraces, docstore.M{"trace_id": "tr1"}); err != nil {
		t.Fatalf("lingering trace lost on shutdown: %v", err)
	}
}
