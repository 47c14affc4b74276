package telemetry

import (
	"crypto/rand"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"rai/internal/clock"
)

// Tracer records lightweight spans. Trace and span IDs are plain
// strings so they can ride inside job messages; a worker on another
// machine continues a trace with StartSpan using the IDs the client
// put in the JobRequest. A finished span goes to the sink and nowhere
// else: the tracer keeps none. A nil *Tracer is valid and records
// nothing.
type Tracer struct {
	clk      clock.Clock
	ids      atomic.Uint64
	instance string
	sink     func(SpanData)
}

// TracerOption configures a Tracer.
type TracerOption func(*Tracer)

// WithTracerClock sets the time source (virtual in simulations).
func WithTracerClock(c clock.Clock) TracerOption {
	return func(t *Tracer) { t.clk = c }
}

// WithTracerInstance namespaces the tracer's IDs. The counter in newID
// is only unique within one tracer; when several processes contribute
// spans to the same trace (client, worker, storage servers), each must
// carry a distinct instance or their span IDs collide and the collector
// overwrites one service's spans with another's. Daemons pass
// NewInstanceID(service); deterministic simulations pass fixed names
// (or nothing, when a single tracer is in play).
func WithTracerInstance(id string) TracerOption {
	return func(t *Tracer) { t.instance = id }
}

// NewInstanceID returns a process-unique tracer instance: the service
// name plus random hex, so replicas of the same service never mint the
// same span IDs. Not for simulations — it breaks reproducibility.
func NewInstanceID(service string) string {
	var b [4]byte
	if _, err := rand.Read(b[:]); err != nil {
		// crypto/rand failing means the OS entropy pool is gone; fall
		// back to the clock rather than abort telemetry.
		return fmt.Sprintf("%s-%x", service, clock.Real{}.Now().UnixNano())
	}
	return fmt.Sprintf("%s-%x", service, b)
}

// WithSpanSink hands every finished span to fn — the hook the batch
// exporter plugs into so spans reach the collector, and the one tests
// record through. fn must not block; Exporter.ExportSpan is
// non-blocking by construction.
func WithSpanSink(fn func(SpanData)) TracerOption {
	return func(t *Tracer) { t.sink = fn }
}

// NewTracer returns a tracer on the wall clock unless opts say
// otherwise.
func NewTracer(opts ...TracerOption) *Tracer {
	t := &Tracer{clk: clock.Real{}}
	for _, o := range opts {
		o(t)
	}
	return t
}

// SpanData is one finished span. The JSON tags are the wire and
// docstore schema: the exporter ships spans in this shape and the
// collector persists them into the traces collection as-is.
type SpanData struct {
	TraceID  string            `json:"trace_id"`
	SpanID   string            `json:"span_id"`
	ParentID string            `json:"parent_id,omitempty"` // "" for the root
	Name     string            `json:"name"`
	Start    time.Time         `json:"start"`
	End      time.Time         `json:"end"`
	Attrs    map[string]string `json:"attrs,omitempty"`
}

// Duration is the span's wall time on its tracer's clock.
func (d SpanData) Duration() time.Duration { return d.End.Sub(d.Start) }

// Span is an in-flight span. All methods are nil-receiver safe.
type Span struct {
	t    *Tracer
	mu   sync.Mutex
	data SpanData
}

func (t *Tracer) newID() string {
	// Deterministic under a virtual clock: a tracer-local counter, not
	// wall time or randomness, so sim traces are bit-reproducible. The
	// instance prefix keeps IDs from different tracers disjoint.
	if t.instance != "" {
		return fmt.Sprintf("%s-%012x", t.instance, t.ids.Add(1))
	}
	return fmt.Sprintf("%012x", t.ids.Add(1))
}

// StartRoot opens a new trace and returns its root span.
func (t *Tracer) StartRoot(name string) *Span {
	if t == nil {
		return nil
	}
	id := t.newID()
	return &Span{t: t, data: SpanData{
		TraceID: id, SpanID: id, Name: name, Start: t.clk.Now(),
	}}
}

// StartSpan continues an existing trace — the worker-side entry point,
// with traceID and parentID arriving inside the job message.
func (t *Tracer) StartSpan(traceID, parentID, name string) *Span {
	if t == nil || traceID == "" {
		return nil
	}
	return &Span{t: t, data: SpanData{
		TraceID: traceID, SpanID: t.newID(), ParentID: parentID,
		Name: name, Start: t.clk.Now(),
	}}
}

// Child opens a sub-span of s.
func (s *Span) Child(name string) *Span {
	if s == nil {
		return nil
	}
	return s.t.StartSpan(s.data.TraceID, s.data.SpanID, name)
}

// SetAttr attaches a key/value to the span.
func (s *Span) SetAttr(key, value string) {
	if s == nil {
		return
	}
	s.mu.Lock()
	if s.data.Attrs == nil {
		s.data.Attrs = map[string]string{}
	}
	s.data.Attrs[key] = value
	s.mu.Unlock()
}

// SetName renames the span (e.g. a generic "phase" span upgraded to
// "run" once the worker sees inference happened).
func (s *Span) SetName(name string) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.data.Name = name
	s.mu.Unlock()
}

// TraceID reports the span's trace, "" on a nil span.
func (s *Span) TraceID() string {
	if s == nil {
		return ""
	}
	return s.data.TraceID
}

// SpanID reports the span's own ID, "" on a nil span.
func (s *Span) SpanID() string {
	if s == nil {
		return ""
	}
	return s.data.SpanID
}

// End stamps the span and hands it to the tracer's sink. Ending a span
// twice records it twice; don't.
func (s *Span) End() {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.data.End = s.t.clk.Now()
	data := s.data
	if data.Attrs != nil {
		cp := make(map[string]string, len(data.Attrs))
		for k, v := range data.Attrs {
			cp[k] = v
		}
		data.Attrs = cp
	}
	s.mu.Unlock()
	s.t.commit(data)
}

func (t *Tracer) commit(d SpanData) {
	if t.sink != nil {
		t.sink(d)
	}
}

// Connected reports whether every non-root span's parent is present in
// the slice and exactly one root exists — the invariant one submitted
// job must satisfy end to end.
func Connected(spans []SpanData) bool {
	if len(spans) == 0 {
		return false
	}
	ids := make(map[string]bool, len(spans))
	for _, d := range spans {
		ids[d.SpanID] = true
	}
	roots := 0
	for _, d := range spans {
		if d.ParentID == "" {
			roots++
			continue
		}
		if !ids[d.ParentID] {
			return false
		}
	}
	return roots == 1
}
