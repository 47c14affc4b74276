package telemetry

import (
	"context"
	"encoding/json"
	"sync"
	"sync/atomic"
	"time"

	"rai/internal/clock"
)

// The exporter is the shipping half of the centralized observability
// pipeline: every daemon hands finished spans and log events to an
// Exporter, which batches them and publishes each batch over the broker
// on the rai.telemetry route, where the collector persists them.
//
// Design constraints, in order:
//
//  1. Never block the hot path. Enqueue is a non-blocking channel send;
//     when the buffer is full the record is counted and dropped.
//     Telemetry loss is always preferable to job latency.
//  2. Bounded memory. One fixed-capacity channel plus one in-progress
//     batch.
//  3. Deterministic under the virtual clock. The flush ticker runs on
//     clock.Clock, so simulations flush on simulated time.

// Batch is the wire unit published on the telemetry topic: one
// service's spans and events accumulated over a flush window.
type Batch struct {
	Service string     `json:"service"`
	Spans   []SpanData `json:"spans,omitempty"`
	Events  []Event    `json:"events,omitempty"`
}

// Encode marshals the batch for the broker.
func (b *Batch) Encode() []byte {
	raw, err := json.Marshal(b)
	if err != nil {
		// All batch contents are plain data types; failure here is a
		// programmer error.
		panic("telemetry: encoding batch: " + err.Error())
	}
	return raw
}

// DecodeBatch unmarshals a batch published by Encode.
func DecodeBatch(raw []byte) (*Batch, error) {
	var b Batch
	if err := json.Unmarshal(raw, &b); err != nil {
		return nil, err
	}
	return &b, nil
}

// ShipFunc delivers one encoded batch to the fabric — in deployments, a
// broker publish on core.TelemetryTopic. Errors are counted, not
// retried: the underlying transports carry their own retry policies,
// and telemetry is droppable by design.
type ShipFunc func(ctx context.Context, b *Batch) error

// Exporter defaults.
const (
	DefaultExportQueue    = 1024
	DefaultExportBatch    = 64
	DefaultExportInterval = time.Second
	DefaultShipTimeout    = 10 * time.Second
)

type exportRec struct {
	span  *SpanData
	event *Event
}

// Exporter batches spans and events and ships them in the background.
// All methods are safe for concurrent use; ExportSpan and ExportEvent
// never block. A nil *Exporter is valid and drops nothing into nowhere.
type Exporter struct {
	service string
	ship    ShipFunc
	// base parents every ship context. It is the caller's context with
	// cancellation stripped: shutdown paths flush after the process
	// context is canceled, and those final batches must still ship.
	base     context.Context
	clk      clock.Clock
	batch    int
	interval time.Duration
	timeout  time.Duration

	ch     chan exportRec
	stop   chan struct{}
	done   chan struct{}
	once   sync.Once
	closed atomic.Bool

	// optional registry instruments; without WithExportMetrics the
	// exporter counts nothing.
	mDropped  map[string]*Counter
	mShipped  map[string]*Counter
	mBatches  *Counter
	mFailures *Counter
}

// ExporterOption configures NewExporter.
type ExporterOption func(*Exporter)

// WithExportClock substitutes the flush-interval time source.
func WithExportClock(c clock.Clock) ExporterOption { return func(e *Exporter) { e.clk = c } }

// WithExportQueue sets the bounded buffer capacity (records admitted
// but not yet batched). Minimum 1.
func WithExportQueue(n int) ExporterOption {
	return func(e *Exporter) {
		if n >= 1 {
			e.ch = make(chan exportRec, n)
		}
	}
}

// WithExportBatch sets how many records trigger an immediate flush.
func WithExportBatch(n int) ExporterOption {
	return func(e *Exporter) {
		if n >= 1 {
			e.batch = n
		}
	}
}

// WithExportInterval sets the flush interval for partial batches.
func WithExportInterval(d time.Duration) ExporterOption {
	return func(e *Exporter) {
		if d > 0 {
			e.interval = d
		}
	}
}

// WithExportShipTimeout bounds each ship call (real time).
func WithExportShipTimeout(d time.Duration) ExporterOption {
	return func(e *Exporter) {
		if d > 0 {
			e.timeout = d
		}
	}
}

// WithExportMetrics counts the exporter's work on reg:
// rai_telemetry_dropped_total / rai_telemetry_shipped_total (labeled by
// kind), rai_telemetry_batches_total, rai_telemetry_ship_failures_total.
func WithExportMetrics(reg *Registry) ExporterOption {
	return func(e *Exporter) {
		if reg == nil {
			return
		}
		e.mDropped = map[string]*Counter{}
		e.mShipped = map[string]*Counter{}
		for _, kind := range []string{"span", "event"} {
			e.mDropped[kind] = reg.Counter("rai_telemetry_dropped_total",
				"telemetry records dropped by the bounded exporter", L("kind", kind))
			e.mShipped[kind] = reg.Counter("rai_telemetry_shipped_total",
				"telemetry records shipped to the collector", L("kind", kind))
		}
		e.mBatches = reg.Counter("rai_telemetry_batches_total", "telemetry batches published")
		e.mFailures = reg.Counter("rai_telemetry_ship_failures_total", "telemetry batches that failed to publish")
	}
}

// NewExporter starts the background flush loop. service names the
// emitting process in every batch. ctx carries the caller's values
// (trace annotations, auth) into every ship call; its cancellation is
// deliberately not inherited — Close on the shutdown path must still
// publish the final batches.
func NewExporter(ctx context.Context, service string, ship ShipFunc, opts ...ExporterOption) *Exporter {
	e := &Exporter{
		service:  service,
		ship:     ship,
		base:     context.WithoutCancel(ctx),
		clk:      clock.Real{},
		batch:    DefaultExportBatch,
		interval: DefaultExportInterval,
		timeout:  DefaultShipTimeout,
		stop:     make(chan struct{}),
		done:     make(chan struct{}),
	}
	for _, o := range opts {
		o(e)
	}
	if e.ch == nil {
		e.ch = make(chan exportRec, DefaultExportQueue)
	}
	go e.run()
	return e
}

// ExportSpan enqueues a finished span; wired as the tracer's span sink.
// Non-blocking: a full buffer (or closed exporter) counts a drop.
func (e *Exporter) ExportSpan(d SpanData) {
	if e == nil {
		return
	}
	if e.closed.Load() {
		e.drop(&exportRec{span: &d})
		return
	}
	select {
	case e.ch <- exportRec{span: &d}:
	default:
		e.drop(&exportRec{span: &d})
	}
}

// ExportEvent enqueues a log event; wired as the logger's sink.
// Non-blocking, same drop semantics as ExportSpan.
func (e *Exporter) ExportEvent(ev Event) {
	if e == nil {
		return
	}
	if e.closed.Load() {
		e.drop(&exportRec{event: &ev})
		return
	}
	select {
	case e.ch <- exportRec{event: &ev}:
	default:
		e.drop(&exportRec{event: &ev})
	}
}

func (e *Exporter) drop(r *exportRec) {
	if r.span != nil {
		e.mDropped["span"].Inc() // nil-map lookup yields nil Counter: no-op
		return
	}
	e.mDropped["event"].Inc()
}

// Close flushes and stops the background loop. Records exported after
// Close are counted as dropped.
func (e *Exporter) Close() {
	if e == nil {
		return
	}
	e.once.Do(func() {
		e.closed.Store(true)
		close(e.stop)
	})
	<-e.done
}

func (e *Exporter) run() {
	defer close(e.done)
	var pending Batch
	pending.Service = e.service
	flushTimer := e.clk.After(e.interval)

	add := func(r exportRec) bool {
		if r.span != nil {
			pending.Spans = append(pending.Spans, *r.span)
		} else if r.event != nil {
			pending.Events = append(pending.Events, *r.event)
		}
		return len(pending.Spans)+len(pending.Events) >= e.batch
	}
	drain := func() {
		for {
			select {
			case r := <-e.ch:
				if add(r) {
					e.publish(&pending)
				}
			default:
				return
			}
		}
	}

	for {
		select {
		case r := <-e.ch:
			if add(r) {
				e.publish(&pending)
			}
		case <-flushTimer:
			e.publish(&pending)
			flushTimer = e.clk.After(e.interval)
		case <-e.stop:
			drain()
			e.publish(&pending)
			return
		}
	}
}

// publish ships the pending batch (if non-empty) and resets it.
func (e *Exporter) publish(b *Batch) {
	ns, ne := len(b.Spans), len(b.Events)
	if ns == 0 && ne == 0 {
		return
	}
	out := &Batch{Service: e.service, Spans: b.Spans, Events: b.Events}
	b.Spans, b.Events = nil, nil
	if e.ship == nil {
		return
	}
	ctx, cancel := context.WithTimeout(e.base, e.timeout)
	defer cancel()
	if err := e.ship(ctx, out); err != nil {
		e.mFailures.Inc()
		return
	}
	e.mShipped["span"].Add(float64(ns))
	e.mShipped["event"].Add(float64(ne))
	e.mBatches.Inc()
}
