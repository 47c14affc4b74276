package telemetry

import (
	"context"
	"io"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"rai/internal/clock"
)

// Level orders event severities.
type Level int8

// Severity levels, least to most severe.
const (
	LevelDebug Level = iota
	LevelInfo
	LevelWarn
	LevelError
)

// String renders the level the way the wire format spells it.
func (l Level) String() string {
	switch l {
	case LevelDebug:
		return "debug"
	case LevelInfo:
		return "info"
	case LevelWarn:
		return "warn"
	default:
		return "error"
	}
}

// Event is one structured log record. Trace identity and job ID are
// stamped from the context the record was emitted under, so the
// collector can index a job's merged stream across services.
type Event struct {
	Time    time.Time         `json:"ts"`
	Level   string            `json:"level"`
	Service string            `json:"service,omitempty"`
	Msg     string            `json:"msg"`
	TraceID string            `json:"trace_id,omitempty"`
	SpanID  string            `json:"span_id,omitempty"`
	JobID   string            `json:"job_id,omitempty"`
	Attrs   map[string]string `json:"attrs,omitempty"`
}

// Text renders the event in logfmt-style key=value form, keys sorted so
// lines are stable for tests and grep.
func (e Event) Text() string {
	var b strings.Builder
	b.WriteString(e.Time.UTC().Format(time.RFC3339Nano))
	b.WriteString(" level=")
	b.WriteString(e.Level)
	if e.Service != "" {
		b.WriteString(" service=")
		b.WriteString(e.Service)
	}
	b.WriteString(" msg=")
	b.WriteString(quoteIfNeeded(e.Msg))
	if e.JobID != "" {
		b.WriteString(" job_id=")
		b.WriteString(e.JobID)
	}
	if e.TraceID != "" {
		b.WriteString(" trace_id=")
		b.WriteString(e.TraceID)
	}
	if e.SpanID != "" {
		b.WriteString(" span_id=")
		b.WriteString(e.SpanID)
	}
	keys := make([]string, 0, len(e.Attrs))
	for k := range e.Attrs {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		b.WriteByte(' ')
		b.WriteString(k)
		b.WriteByte('=')
		b.WriteString(quoteIfNeeded(e.Attrs[k]))
	}
	return b.String()
}

func quoteIfNeeded(s string) string {
	if s == "" || strings.ContainsAny(s, " \t\"=\n") {
		return strconv.Quote(s)
	}
	return s
}

// Logger emits leveled, structured events. Each event goes to the
// writer (key=value lines, for the daemon's own log stream) and
// to the sink (the exporter, for the centralized pipeline). Either may
// be absent. A nil *Logger is valid and records nothing.
type Logger struct {
	service string
	sink    func(Event)

	mu sync.Mutex
	w  io.Writer
}

// LoggerOption configures NewLogger.
type LoggerOption func(*Logger)

// WithLogWriter directs encoded lines to w (e.g. the daemon's stderr).
func WithLogWriter(w io.Writer) LoggerOption { return func(l *Logger) { l.w = w } }

// WithLogSink hands every surviving event to fn — the hook the batch
// exporter plugs into. fn must not block; the exporter's enqueue is
// non-blocking by construction.
func WithLogSink(fn func(Event)) LoggerOption { return func(l *Logger) { l.sink = fn } }

// NewLogger returns a logger stamping events with the given service
// name ("raiworker", "raifs", ...).
func NewLogger(service string, opts ...LoggerOption) *Logger {
	l := &Logger{service: service}
	for _, o := range opts {
		o(l)
	}
	return l
}

// Log emits one event at the given level, stamping trace/span/job IDs
// from ctx; events below LevelInfo are dropped. attrs are Label pairs
// (reusing the metric Label type).
func (l *Logger) Log(ctx context.Context, level Level, msg string, attrs ...Label) {
	if l == nil || level < LevelInfo {
		return
	}
	e := Event{
		Time:    clock.Real{}.Now(),
		Level:   level.String(),
		Service: l.service,
		Msg:     msg,
		JobID:   JobIDFrom(ctx),
	}
	if sc := SpanContextFrom(ctx); sc.Valid() {
		e.TraceID, e.SpanID = sc.TraceID, sc.SpanID
	}
	if len(attrs) > 0 {
		e.Attrs = make(map[string]string, len(attrs))
		for _, a := range attrs {
			e.Attrs[a.Key] = a.Value
		}
	}
	if l.w != nil {
		l.mu.Lock()
		l.w.Write([]byte(e.Text() + "\n"))
		l.mu.Unlock()
	}
	if l.sink != nil {
		l.sink(e)
	}
}

// Info emits an info-level event.
func (l *Logger) Info(ctx context.Context, msg string, attrs ...Label) {
	l.Log(ctx, LevelInfo, msg, attrs...)
}

// Warn emits a warn-level event.
func (l *Logger) Warn(ctx context.Context, msg string, attrs ...Label) {
	l.Log(ctx, LevelWarn, msg, attrs...)
}

// Error emits an error-level event.
func (l *Logger) Error(ctx context.Context, msg string, attrs ...Label) {
	l.Log(ctx, LevelError, msg, attrs...)
}
