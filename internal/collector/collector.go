// Package collector is the persistence half of the centralized
// observability pipeline: it subscribes to the rai.telemetry route,
// decodes the span/event batches every daemon's exporter publishes, and
// writes them into the document store — dogfooding the same database
// that holds job records. The traces and events collections are what
// `raiadmin trace` and `raiadmin logs` query.
package collector

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"sort"
	"strconv"
	"time"

	"rai/internal/broker"
	"rai/internal/clock"
	"rai/internal/core"
	"rai/internal/docstore"
	"rai/internal/netx"
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
// acked only after persistence (or tail buffering), and every write is
// an idempotent upsert keyed by what the record is (see Persist), so
// at-least-once redelivery cannot duplicate spans or events. A write
// that failed retryably (netx.DefaultRetryable, after the store
// client's own retries) requeues its batch; one that failed for good is
// logged and acked. Only a batch that landed counts in
// rai_collector_batches_total.
//
// With Tail.Linger > 0 spans detour through the tail buffer and persist
// only when their trace survives the retention decision; events always
// persist immediately (they are bounded by the retention sweep instead).
// A batch is acked once buffered — a crash loses at most one linger
// window of undecided traces, which is the price of deciding with the
// whole trace in hand. Survivors whose write failed retryably are
// written again at the next flush.
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
	// persistKept writes tail survivors, with those of earlier flushes
	// whose write failed retryably, one request per eviction. Shutdown
	// uses a detached context so the final flush is not cut off by the
	// very cancellation that triggered it.
	var unsaved []spanRec
	persistKept := func(ctx context.Context, recs []spanRec) {
		recs, unsaved = append(unsaved, recs...), nil
		ops := make([]docstore.Upsert, len(recs))
		for i, r := range recs {
			ops[i] = spanOp(r.service, r.data)
		}
		switch err := c.write(ctx, ops); {
		case err == nil:
			spans.Add(float64(len(ops)))
		case netx.DefaultRetryable(err):
			unsaved = recs
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
			// With a tail stage only the events persist now; the spans
			// join the buffer once the batch is sure not to come back.
			now := b
			if tail != nil {
				now = &Batch{Service: b.Service, Events: b.Events}
			}
			err = c.Persist(ctx, now)
			if err != nil && (netx.DefaultRetryable(err) || ctx.Err() != nil) {
				_ = sub.Requeue(ctx, m)
				continue
			}
			if err == nil {
				spans.Add(float64(len(now.Spans)))
				events.Add(float64(len(now.Events)))
				batches.Inc()
			}
			if tail != nil {
				for _, s := range b.Spans {
					tail.add(b.Service, s)
				}
			}
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

// Persist writes one batch into the traces and events collections as
// one UpsertMany: all of it lands, or none and the error says why.
// Every op is an upsert keyed by what the record is — a span by
// (trace_id, span_id), an event by a hash of its content — so persisting
// a redelivered batch rewrites the same documents instead of adding
// new ones.
func (c *Collector) Persist(ctx context.Context, b *Batch) error {
	ops := make([]docstore.Upsert, 0, len(b.Spans)+len(b.Events))
	for _, s := range b.Spans {
		ops = append(ops, spanOp(b.Service, s))
	}
	for _, e := range b.Events {
		ops = append(ops, eventOp(b.Service, e))
	}
	return c.write(ctx, ops)
}

// write persists ops in one request; a failure is logged and returned.
func (c *Collector) write(ctx context.Context, ops []docstore.Upsert) error {
	if len(ops) == 0 {
		return nil
	}
	_, err := c.DB.UpsertMany(ctx, ops)
	if err != nil {
		c.Log.Warn(ctx, "persisting telemetry failed",
			telemetry.L("records", strconv.Itoa(len(ops))), telemetry.L("error", err.Error()))
	}
	return err
}

// Batch aliases the telemetry wire type so callers need not import both
// packages.
type Batch = telemetry.Batch

// spanOp is the upsert that persists one span. The key is composite:
// span IDs are only unique per tracer instance, so a bare span_id
// filter could splice unrelated traces together.
func spanOp(service string, s telemetry.SpanData) docstore.Upsert {
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
		doc["attrs"] = attrsDoc(s.Attrs)
	}
	return docstore.Upsert{
		Coll:   core.CollTraces,
		Filter: docstore.M{"trace_id": s.TraceID, "span_id": s.SpanID},
		Update: docstore.M{"$set": doc},
	}
}

// eventOp is the upsert that persists one event, under the _id eventID
// derives from its content.
func eventOp(service string, e telemetry.Event) docstore.Upsert {
	if e.Service == "" {
		e.Service = service
	}
	ts := e.Time.UTC().Format(time.RFC3339Nano)
	doc := docstore.M{
		"ts":       ts,
		"ts_s":     unixSeconds(e.Time),
		"level":    e.Level,
		"service":  e.Service,
		"msg":      e.Msg,
		"trace_id": e.TraceID,
		"span_id":  e.SpanID,
		"job_id":   e.JobID,
	}
	if len(e.Attrs) > 0 {
		doc["attrs"] = attrsDoc(e.Attrs)
	}
	return docstore.Upsert{
		Coll:   core.CollEvents,
		Filter: docstore.M{"_id": eventID(e, ts)},
		Update: docstore.M{"$set": doc},
	}
}

// eventID names an event by a hash of everything it says: service,
// timestamp, job, trace and span ids, level, message and its attrs in
// key order. Each field is length-prefixed, so no two different events
// hash the same bytes; two identical records are one event delivered
// twice.
func eventID(e telemetry.Event, ts string) string {
	var b []byte
	put := func(s string) {
		b = binary.AppendUvarint(b, uint64(len(s)))
		b = append(b, s...)
	}
	for _, f := range []string{e.Service, ts, e.JobID, e.TraceID, e.SpanID, e.Level, e.Msg} {
		put(f)
	}
	keys := make([]string, 0, len(e.Attrs))
	for k := range e.Attrs {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		put(k)
		put(e.Attrs[k])
	}
	sum := sha256.Sum256(b)
	return "ev-" + hex.EncodeToString(sum[:16])
}

func attrsDoc(attrs map[string]string) docstore.M {
	out := make(docstore.M, len(attrs))
	for k, v := range attrs {
		out[k] = v
	}
	return out
}

// unixSeconds renders t as float seconds for range filters and sorting
// (the RFC3339Nano strings keep the exact timestamps but do not sort
// lexicographically once trailing zeros are trimmed).
func unixSeconds(t time.Time) float64 {
	return float64(t.UnixNano()) / float64(time.Second)
}
