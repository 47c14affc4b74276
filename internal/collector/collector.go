// Package collector is the persistence half of the centralized
// observability pipeline: it subscribes to the rai.telemetry route,
// decodes the span/event batches every daemon's exporter publishes, and
// writes them into the document store — dogfooding the same database
// that holds job records. The traces and events collections are what
// `raiadmin trace` and `raiadmin logs` query.
package collector

import (
	"context"
	"fmt"
	"time"

	"rai/internal/broker"
	"rai/internal/clock"
	"rai/internal/core"
	"rai/internal/docstore"
	"rai/internal/telemetry"
)

// Collector drains telemetry batches from the queue into the store.
type Collector struct {
	Queue broker.Queue
	DB    docstore.Store
	// Telemetry, when set, counts persisted records and decode failures.
	Telemetry *telemetry.Registry
	// Log, when set, reports collector lifecycle and decode errors.
	Log *telemetry.Logger
	// Prefetch is the subscription window (default 64).
	Prefetch int
	// Tail configures tail-based retention. The zero value persists every
	// span immediately; a nonzero Linger buffers each trace and keeps
	// error/slow traces at 100% while downsampling the boring bulk.
	Tail TailConfig
	// Clock is the time source for tail linger windows and the retention
	// sweep (default real time; virtual in tests).
	Clock clock.Clock
}

func (c *Collector) clock() clock.Clock {
	if c.Clock != nil {
		return c.Clock
	}
	return clock.Real{}
}

// Run subscribes on core.TelemetryTopic/TelemetryChannel and persists
// batches until ctx is done. The shared channel means running several
// collector replicas divides the stream, not duplicates it; batches are
// acked only after persistence (or tail buffering), and span writes are
// idempotent upserts keyed by span_id, so at-least-once redelivery
// cannot duplicate spans.
//
// With Tail.Linger > 0 spans detour through the tail buffer and persist
// only when their trace survives the retention decision; events always
// persist immediately (they are bounded by the retention sweep instead).
// A batch is acked once buffered — a crash loses at most one linger
// window of undecided traces, which is the price of deciding with the
// whole trace in hand.
func (c *Collector) Run(ctx context.Context) error {
	prefetch := c.Prefetch
	if prefetch <= 0 {
		prefetch = 64
	}
	sub, err := c.Queue.Subscribe(ctx, core.TelemetryTopic, core.TelemetryChannel, prefetch)
	if err != nil {
		return fmt.Errorf("collector: subscribing: %w", err)
	}
	defer sub.Close()
	c.Log.Info(ctx, "collector started")
	batches := c.Telemetry.Counter("rai_collector_batches_total", "telemetry batches persisted")
	spans := c.Telemetry.Counter("rai_collector_spans_total", "spans persisted")
	events := c.Telemetry.Counter("rai_collector_events_total", "events persisted")
	malformed := c.Telemetry.Counter("rai_collector_malformed_total", "batches that failed to decode")

	var tail *tailBuffer
	var flush <-chan time.Time
	clk := c.clock()
	flushEvery := c.Tail.Linger / 4
	if flushEvery < time.Millisecond {
		flushEvery = time.Millisecond
	}
	if c.Tail.Linger > 0 {
		tail = newTailBuffer(c.Tail, clk, c.Telemetry)
		flush = clk.After(flushEvery)
	}
	// persistKept writes tail survivors. Shutdown uses a detached context
	// so the final flush is not cut off by the very cancellation that
	// triggered it.
	persistKept := func(ctx context.Context, recs []spanRec) {
		for _, r := range recs {
			if err := c.persistSpan(ctx, r.service, r.data); err != nil {
				c.Log.Warn(ctx, "persisting span failed",
					telemetry.L("span_id", r.data.SpanID), telemetry.L("error", err.Error()))
				continue
			}
			spans.Add(1)
		}
	}
	drain := func() {
		if tail != nil {
			persistKept(context.WithoutCancel(ctx), tail.evict(true))
		}
	}

	for {
		select {
		case m, ok := <-sub.C():
			if !ok {
				drain()
				return nil
			}
			b, err := telemetry.DecodeBatch(m.Body)
			if err != nil {
				// A malformed batch will never decode; ack it away.
				malformed.Inc()
				c.Log.Warn(ctx, "malformed telemetry batch", telemetry.L("error", err.Error()))
				_ = sub.Ack(ctx, m)
				continue
			}
			if tail == nil {
				ns, ne := c.Persist(ctx, b)
				spans.Add(float64(ns))
				events.Add(float64(ne))
				batches.Inc()
				_ = sub.Ack(ctx, m)
				continue
			}
			for _, s := range b.Spans {
				tail.add(b.Service, s)
			}
			ne := c.persistEvents(ctx, b)
			events.Add(float64(ne))
			batches.Inc()
			_ = sub.Ack(ctx, m)
		case <-flush:
			persistKept(ctx, tail.evict(false))
			flush = clk.After(flushEvery)
		case <-ctx.Done():
			drain()
			return nil
		}
	}
}

// Persist writes one batch into the traces and events collections and
// reports how many spans and events landed. Span documents are upserted
// by span_id (idempotent under redelivery); events are inserted.
func (c *Collector) Persist(ctx context.Context, b *Batch) (spans, events int) {
	for _, s := range b.Spans {
		if err := c.persistSpan(ctx, b.Service, s); err != nil {
			c.Log.Warn(ctx, "persisting span failed",
				telemetry.L("span_id", s.SpanID), telemetry.L("error", err.Error()))
			continue
		}
		spans++
	}
	return spans, c.persistEvents(ctx, b)
}

// persistEvents writes only the batch's events (the tail-buffered path,
// where spans wait on the retention decision but events land at once).
func (c *Collector) persistEvents(ctx context.Context, b *Batch) (events int) {
	for _, e := range b.Events {
		if err := c.persistEvent(ctx, b.Service, e); err != nil {
			c.Log.Warn(ctx, "persisting event failed", telemetry.L("error", err.Error()))
			continue
		}
		events++
	}
	return events
}

// Batch aliases the telemetry wire type so callers need not import both
// packages.
type Batch = telemetry.Batch

func (c *Collector) persistSpan(ctx context.Context, service string, s telemetry.SpanData) error {
	doc := docstore.M{
		"trace_id":   s.TraceID,
		"span_id":    s.SpanID,
		"parent_id":  s.ParentID,
		"name":       s.Name,
		"service":    service,
		"start":      s.Start.UTC().Format(time.RFC3339Nano),
		"end":        s.End.UTC().Format(time.RFC3339Nano),
		"start_s":    unixSeconds(s.Start),
		"duration_s": s.Duration().Seconds(),
		"job_id":     s.Attrs["job_id"],
	}
	if len(s.Attrs) > 0 {
		attrs := docstore.M{}
		for k, v := range s.Attrs {
			attrs[k] = v
		}
		doc["attrs"] = attrs
	}
	// Composite key: span IDs are only unique per tracer instance, so a
	// bare span_id filter could splice unrelated traces together.
	_, err := c.DB.Upsert(ctx, core.CollTraces,
		docstore.M{"trace_id": s.TraceID, "span_id": s.SpanID}, docstore.M{"$set": doc})
	return err
}

func (c *Collector) persistEvent(ctx context.Context, service string, e telemetry.Event) error {
	if e.Service == "" {
		e.Service = service
	}
	doc := docstore.M{
		"ts":       e.Time.UTC().Format(time.RFC3339Nano),
		"ts_s":     unixSeconds(e.Time),
		"level":    e.Level,
		"service":  e.Service,
		"msg":      e.Msg,
		"trace_id": e.TraceID,
		"span_id":  e.SpanID,
		"job_id":   e.JobID,
	}
	if len(e.Attrs) > 0 {
		attrs := docstore.M{}
		for k, v := range e.Attrs {
			attrs[k] = v
		}
		doc["attrs"] = attrs
	}
	_, err := c.DB.Insert(ctx, core.CollEvents, doc)
	return err
}

// unixSeconds renders t as float seconds for range filters and sorting
// (the RFC3339Nano strings keep the exact timestamps but do not sort
// lexicographically once trailing zeros are trimmed).
func unixSeconds(t time.Time) float64 {
	return float64(t.UnixNano()) / float64(time.Second)
}
