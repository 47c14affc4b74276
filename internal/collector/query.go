package collector

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sort"
	"strings"
	"time"

	"rai/internal/core"
	"rai/internal/docstore"
	"rai/internal/telemetry"
)

// Span is a persisted span plus the service that emitted it.
type Span struct {
	telemetry.SpanData
	Service string
}

// TraceIDForJob resolves a job to its trace by finding any persisted
// span stamped with the job's ID (the client root and the worker
// dequeue span both are).
func TraceIDForJob(ctx context.Context, db docstore.Store, jobID string) (string, error) {
	doc, err := db.FindOne(ctx, core.CollTraces, docstore.M{"job_id": jobID})
	if errors.Is(err, docstore.ErrNotFound) {
		return "", fmt.Errorf("collector: no spans recorded for job %s: %w", jobID, err)
	}
	if err != nil {
		return "", fmt.Errorf("collector: looking up job %s: %w", jobID, err)
	}
	return traceIDOf(doc, "job "+jobID)
}

// SlowestTrace returns the ID of the kept trace whose root span lasted
// longest. The root is the client's job span, so its duration is the
// end-to-end latency the student saw — the quantity tail retention
// ranks as slow. docstore.ErrNotFound when no root span is stored.
//
// The filter is $eq rather than a bare string so that this rare
// operator query scans: a bare string equality makes raidb build a
// parent_id index and keep it for every later span write, and its ""
// bucket, one entry per trace, makes each retention-sweep delete cost
// the length of that bucket.
func SlowestTrace(ctx context.Context, db docstore.Store) (string, error) {
	docs, err := db.Find(ctx, core.CollTraces, docstore.M{"parent_id": docstore.M{"$eq": ""}},
		docstore.FindOpts{Sort: []string{"-duration_s"}, Limit: 1})
	if err != nil {
		return "", err
	}
	if len(docs) == 0 {
		return "", docstore.ErrNotFound
	}
	return traceIDOf(docs[0], "the slowest root span")
}

func traceIDOf(doc docstore.M, what string) (string, error) {
	id, _ := doc["trace_id"].(string)
	if id == "" {
		return "", fmt.Errorf("collector: span document for %s lacks trace_id", what)
	}
	return id, nil
}

// TraceSpans loads every persisted span of a trace, ordered by start
// time (root first on ties).
func TraceSpans(ctx context.Context, db docstore.Store, traceID string) ([]Span, error) {
	docs, err := db.Find(ctx, core.CollTraces, docstore.M{"trace_id": traceID}, docstore.FindOpts{})
	if err != nil {
		return nil, err
	}
	spans := make([]Span, 0, len(docs))
	for _, d := range docs {
		spans = append(spans, spanFromDoc(d))
	}
	sort.SliceStable(spans, func(i, j int) bool {
		if !spans[i].Start.Equal(spans[j].Start) {
			return spans[i].Start.Before(spans[j].Start)
		}
		return spans[i].ParentID == "" && spans[j].ParentID != ""
	})
	return spans, nil
}

// EventsByJob loads a job's merged event stream across services,
// ordered by time. Events after sinceS (unix seconds, exclusive) only;
// pass 0 for everything. The follow mode of raiadmin logs polls with an
// advancing sinceS.
func EventsByJob(ctx context.Context, db docstore.Store, jobID string, sinceS float64) ([]telemetry.Event, error) {
	filter := docstore.M{"job_id": jobID}
	if sinceS > 0 {
		filter["ts_s"] = docstore.M{"$gt": sinceS}
	}
	docs, err := db.Find(ctx, core.CollEvents, filter, docstore.FindOpts{Sort: []string{"ts_s"}})
	if err != nil {
		return nil, err
	}
	events := make([]telemetry.Event, 0, len(docs))
	for _, d := range docs {
		events = append(events, eventFromDoc(d))
	}
	return events, nil
}

// EventUnixSeconds reports an event's timestamp in the ts_s scale, for
// advancing a follow cursor.
func EventUnixSeconds(e telemetry.Event) float64 { return unixSeconds(e.Time) }

func spanFromDoc(d docstore.M) Span {
	s := Span{}
	s.TraceID, _ = d["trace_id"].(string)
	s.SpanID, _ = d["span_id"].(string)
	s.ParentID, _ = d["parent_id"].(string)
	s.Name, _ = d["name"].(string)
	s.Service, _ = d["service"].(string)
	s.Start = parseTime(d["start"])
	s.End = parseTime(d["end"])
	s.Attrs = stringAttrs(d)
	return s
}

func eventFromDoc(d docstore.M) telemetry.Event {
	e := telemetry.Event{}
	e.Time = parseTime(d["ts"])
	e.Level, _ = d["level"].(string)
	e.Service, _ = d["service"].(string)
	e.Msg, _ = d["msg"].(string)
	e.TraceID, _ = d["trace_id"].(string)
	e.SpanID, _ = d["span_id"].(string)
	e.JobID, _ = d["job_id"].(string)
	e.Attrs = stringAttrs(d)
	return e
}

// stringAttrs keeps the string-valued entries of a document's attrs
// field (nil when the document has none).
func stringAttrs(d docstore.M) map[string]string {
	attrs, ok := d["attrs"].(map[string]any)
	if !ok {
		return nil
	}
	out := make(map[string]string, len(attrs))
	for k, v := range attrs {
		if sv, ok := v.(string); ok {
			out[k] = sv
		}
	}
	return out
}

func parseTime(v any) time.Time {
	s, _ := v.(string)
	t, _ := time.Parse(time.RFC3339Nano, s)
	return t
}

// Phase is one row of the Figure 4 decomposition.
type Phase struct {
	Name     string
	Duration time.Duration
}

// Phases decomposes a job's span tree into per-phase durations. The
// client's upload and enqueue come first, then the queue delay (enqueue
// end to the first worker pickup). Each direct child of a worker's
// dequeue span — the worker's stages — is then a phase of its own name,
// in first-start order, repeated spans (several build commands) summed.
// unattributed is dequeue minus its children, so the worker's rows add
// up to its service time by construction. reply is the client's tail:
// from the end of the worker's last stage, which publishes End, to the
// end of the client's job span. total is the job span. Phases absent
// from the trace are omitted.
func Phases(spans []Span) []Phase {
	spans = slices.Clone(spans)
	sort.SliceStable(spans, func(i, j int) bool { return spans[i].Start.Before(spans[j].Start) })
	dequeues := map[string]bool{}
	for _, s := range spans {
		if s.Name == "dequeue" {
			dequeues[s.SpanID] = true
		}
	}
	var (
		out                 []Phase
		at                  = map[string]int{}
		total, unattributed time.Duration
		haveTotal, picked   bool
		enqueueEnd, jobEnd  time.Time
		stagesEnd           time.Time
	)
	add := func(name string, d time.Duration) {
		if i, ok := at[name]; ok {
			out[i].Duration += d
			return
		}
		at[name] = len(out)
		out = append(out, Phase{name, d})
	}
	for _, s := range spans {
		switch {
		case s.Name == "job":
			total, haveTotal, jobEnd = s.Duration(), true, s.End
		case s.Name == "upload":
			add(s.Name, s.Duration())
		case s.Name == "enqueue":
			add(s.Name, s.Duration())
			enqueueEnd = s.End
		case dequeues[s.SpanID]:
			if !picked && !enqueueEnd.IsZero() && s.Start.After(enqueueEnd) {
				add("queue delay", s.Start.Sub(enqueueEnd))
			}
			picked = true
			unattributed += s.Duration()
		case dequeues[s.ParentID]:
			add(s.Name, s.Duration())
			unattributed -= s.Duration()
			if s.End.After(stagesEnd) {
				stagesEnd = s.End
			}
		}
	}
	if picked {
		add("unattributed", unattributed)
	}
	if haveTotal && !stagesEnd.IsZero() {
		// The client can see End before the last stage's span closes.
		add("reply", max(0, jobEnd.Sub(stagesEnd)))
	}
	if haveTotal {
		out = append(out, Phase{"total", total})
	}
	return out
}

// FormatTimeline renders a trace the way raiadmin trace prints it: the
// span tree (indented, with service and duration per span) followed by
// the per-phase decomposition.
func FormatTimeline(spans []Span) string {
	if len(spans) == 0 {
		return "no spans recorded\n"
	}
	byID := map[string]bool{}
	for _, s := range spans {
		byID[s.SpanID] = true
	}
	children := map[string][]Span{}
	var roots []Span
	for _, s := range spans {
		if s.ParentID == "" || !byID[s.ParentID] {
			roots = append(roots, s)
			continue
		}
		children[s.ParentID] = append(children[s.ParentID], s)
	}
	var b strings.Builder
	var walk func(s Span, depth int)
	walk = func(s Span, depth int) {
		fmt.Fprintf(&b, "%s%-*s %12v  [%s]\n",
			strings.Repeat("  ", depth), 30-2*depth, s.Name, s.Duration().Round(time.Microsecond), s.Service)
		for _, c := range children[s.SpanID] {
			walk(c, depth+1)
		}
	}
	for _, r := range roots {
		walk(r, 0)
	}
	phases := Phases(spans)
	if len(phases) > 0 {
		b.WriteString("\nphase durations:\n")
		for _, p := range phases {
			fmt.Fprintf(&b, "  %-12s %12v\n", p.Name, p.Duration.Round(time.Microsecond))
		}
	}
	if !connected(spans) {
		b.WriteString("\nwarning: trace is not fully connected (spans missing or still in flight)\n")
	}
	return b.String()
}

// connected mirrors telemetry.Connected over persisted spans.
func connected(spans []Span) bool {
	data := make([]telemetry.SpanData, len(spans))
	for i, s := range spans {
		data[i] = s.SpanData
	}
	return telemetry.Connected(data)
}
