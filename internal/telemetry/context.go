package telemetry

import (
	"context"
	"net/http"
)

// Trace context rides on context.Context so any layer — the core job
// protocol, the storage HTTP clients, the event logger — can stamp its
// output with the IDs of the trace it is working for without threading
// them through every signature. The broker job protocol carries the
// same IDs inside JobRequest; the HTTP headers below carry them across
// the objstore/docstore hops.

// SpanContext is the portable identity of a span: enough to continue
// its trace in another process. The zero value means "no trace".
type SpanContext struct {
	TraceID string
	SpanID  string
	// Sampled carries the head-sampling verdict made at the trace root,
	// so downstream processes export (or suppress) their spans for this
	// trace consistently with the originator. DecisionUnknown when the
	// originator did not sample.
	Sampled Decision
}

// Valid reports whether the context names a trace.
func (sc SpanContext) Valid() bool { return sc.TraceID != "" }

type spanCtxKey struct{}
type jobCtxKey struct{}
type sampleCtxKey struct{}

// ContextWithSpan returns ctx carrying s's identity. A nil or unstarted
// span leaves ctx unchanged, so callers can thread optional telemetry
// without branching.
func ContextWithSpan(ctx context.Context, s *Span) context.Context {
	if s == nil {
		return ctx
	}
	return ContextWithSpanContext(ctx, SpanContext{TraceID: s.TraceID(), SpanID: s.SpanID()})
}

// ContextWithSpanContext returns ctx carrying sc. An invalid sc leaves
// ctx unchanged.
func ContextWithSpanContext(ctx context.Context, sc SpanContext) context.Context {
	if !sc.Valid() {
		return ctx
	}
	return context.WithValue(ctx, spanCtxKey{}, sc)
}

// SpanContextFrom extracts the current trace identity (zero value when
// ctx carries none).
func SpanContextFrom(ctx context.Context) SpanContext {
	if ctx == nil {
		return SpanContext{}
	}
	sc, _ := ctx.Value(spanCtxKey{}).(SpanContext)
	return sc
}

// ContextWithSampling returns ctx carrying the trace's sampling
// verdict; InjectHTTP forwards it so storage servers suppress their
// child spans for dropped traces. Unknown decisions leave ctx
// unchanged.
func ContextWithSampling(ctx context.Context, d Decision) context.Context {
	if d == DecisionUnknown {
		return ctx
	}
	return context.WithValue(ctx, sampleCtxKey{}, d)
}

// SamplingFrom extracts the sampling verdict (DecisionUnknown when ctx
// carries none).
func SamplingFrom(ctx context.Context) Decision {
	if ctx == nil {
		return DecisionUnknown
	}
	d, _ := ctx.Value(sampleCtxKey{}).(Decision)
	return d
}

// ContextWithJobID returns ctx tagged with the submission being worked
// on; the logger stamps it onto every event so a job's output can be
// reassembled across services.
func ContextWithJobID(ctx context.Context, jobID string) context.Context {
	if jobID == "" {
		return ctx
	}
	return context.WithValue(ctx, jobCtxKey{}, jobID)
}

// JobIDFrom extracts the job ID ("" when ctx carries none).
func JobIDFrom(ctx context.Context) string {
	if ctx == nil {
		return ""
	}
	id, _ := ctx.Value(jobCtxKey{}).(string)
	return id
}

// HTTP propagation headers. The storage clients set them per request;
// the storage servers open child spans from them, which is how upload,
// download, and metadata writes appear inside a job's span tree.
const (
	HeaderTraceID    = "X-RAI-Trace-ID"
	HeaderParentSpan = "X-RAI-Parent-Span"
	HeaderJobID      = "X-RAI-Job-ID"
	// HeaderSampled carries the head-sampling verdict ("1" keep, "0"
	// drop) so servers agree with the trace originator.
	HeaderSampled = "X-RAI-Sampled"
)

// InjectHTTP copies ctx's trace identity and job ID into h. No-op when
// ctx carries no trace.
func InjectHTTP(ctx context.Context, h http.Header) {
	if sc := SpanContextFrom(ctx); sc.Valid() {
		h.Set(HeaderTraceID, sc.TraceID)
		h.Set(HeaderParentSpan, sc.SpanID)
	}
	if id := JobIDFrom(ctx); id != "" {
		h.Set(HeaderJobID, id)
	}
	if d := SamplingFrom(ctx); d != DecisionUnknown {
		h.Set(HeaderSampled, d.String())
	}
}

// ExtractHTTP reads the propagation headers back out of an incoming
// request's header set.
func ExtractHTTP(h http.Header) (SpanContext, string) {
	return SpanContext{
		TraceID: h.Get(HeaderTraceID),
		SpanID:  h.Get(HeaderParentSpan),
		Sampled: ParseDecision(h.Get(HeaderSampled)),
	}, h.Get(HeaderJobID)
}
