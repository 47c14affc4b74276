package collector

// Tail-based retention: the one place that decides whether a trace is
// kept. Every process ships every span; the tail buffer holds each
// arriving trace for a short linger window after its last span, then
// decides with the whole trace in hand: error traces and slow traces (a
// latency-biased reservoir keyed off the observed root-duration
// distribution) are always kept, the boring bulk is downsampled by a
// deterministic hash. Every decision is counted, so operators can
// verify the persisted set is exactly what the policy promised — never
// silently truncated.

import (
	"hash/fnv"
	"sync"
	"time"

	"rai/internal/clock"
	"rai/internal/telemetry"
)

// TailConfig tunes the collector's tail-retention stage. The zero
// value disables it (every span persists immediately, PR 3 behavior).
type TailConfig struct {
	// Linger is how long a trace is buffered after its last span
	// arrives before the retention decision is made. Zero disables
	// tail buffering entirely.
	Linger time.Duration
	// KeepRate is the retention probability for "boring" traces —
	// neither errored nor slow. Deterministic per trace ID.
	KeepRate float64
	// SlowQuantile sets the latency bias: traces whose root duration
	// sits at or above this quantile of the observed distribution are
	// always kept (default 0.99).
	SlowQuantile float64
	// MinSamples is how many root durations must be observed before
	// the slow detector trusts its quantile estimate (default 32; a
	// cold collector keeps by KeepRate only).
	MinSamples int
}

func (c TailConfig) withDefaults() TailConfig {
	if c.SlowQuantile <= 0 || c.SlowQuantile >= 1 {
		c.SlowQuantile = 0.99
	}
	if c.MinSamples <= 0 {
		c.MinSamples = 32
	}
	if c.KeepRate < 0 {
		c.KeepRate = 0
	}
	if c.KeepRate > 1 {
		c.KeepRate = 1
	}
	return c
}

// spanRec pairs a buffered span with the service that shipped it (the
// batch attribute persistSpan needs).
type spanRec struct {
	service string
	data    telemetry.SpanData
}

// pendingTrace is one trace accumulating in the tail buffer.
type pendingTrace struct {
	spans    []spanRec
	lastSeen time.Time
	hasError bool
	rootDur  float64 // seconds; <0 until the root span arrives
}

// tailBuffer implements the linger-and-decide stage.
type tailBuffer struct {
	cfg TailConfig
	clk clock.Clock

	mu     sync.Mutex
	traces map[string]*pendingTrace
	// hist observes every decided trace's root duration; its upper
	// quantile is the moving slow threshold.
	hist *telemetry.HDRHistogram

	kept          map[string]*telemetry.Counter // by reason
	droppedTraces *telemetry.Counter
	droppedSpans  *telemetry.Counter
	pending       *telemetry.Gauge
}

// Tail-retention decision reasons (the kept-counter label values).
const (
	tailReasonError   = "error"
	tailReasonSlow    = "slow"
	tailReasonSampled = "sampled"
)

func newTailBuffer(cfg TailConfig, clk clock.Clock, reg *telemetry.Registry) *tailBuffer {
	cfg = cfg.withDefaults()
	t := &tailBuffer{
		cfg:    cfg,
		clk:    clk,
		traces: map[string]*pendingTrace{},
		hist:   telemetry.NewHDRHistogram(),
		kept:   map[string]*telemetry.Counter{},
	}
	for _, reason := range []string{tailReasonError, tailReasonSlow, tailReasonSampled} {
		t.kept[reason] = reg.Counter("rai_collector_tail_kept_total",
			"traces kept by tail retention", telemetry.L("reason", reason))
	}
	t.droppedTraces = reg.Counter("rai_collector_tail_dropped_total",
		"boring traces dropped by tail retention")
	t.droppedSpans = reg.Counter("rai_collector_tail_spans_dropped_total",
		"spans discarded with tail-dropped traces")
	t.pending = reg.Gauge("rai_collector_tail_pending", "traces lingering in the tail buffer")
	return t
}

// add buffers one span under its trace, restarting the trace's linger
// window.
func (t *tailBuffer) add(service string, s telemetry.SpanData) {
	t.mu.Lock()
	defer t.mu.Unlock()
	pt, ok := t.traces[s.TraceID]
	if !ok {
		pt = &pendingTrace{rootDur: -1}
		t.traces[s.TraceID] = pt
		t.pending.Add(1)
	}
	pt.spans = append(pt.spans, spanRec{service: service, data: s})
	pt.lastSeen = t.clk.Now()
	if s.ParentID == "" {
		pt.rootDur = s.Duration().Seconds()
	}
	if s.Attrs["error"] != "" || s.Attrs["status"] == "failed" || s.Attrs["status"] == "rejected" {
		pt.hasError = true
	}
}

// evict removes and decides every trace idle past the linger window
// (or all traces, when flushAll is set — the shutdown path). It
// returns the spans of kept traces for persistence.
func (t *tailBuffer) evict(flushAll bool) []spanRec {
	t.mu.Lock()
	var expired []*pendingTrace
	var ids []string
	now := t.clk.Now()
	for id, pt := range t.traces {
		if flushAll || now.Sub(pt.lastSeen) >= t.cfg.Linger {
			expired = append(expired, pt)
			ids = append(ids, id)
		}
	}
	for _, id := range ids {
		delete(t.traces, id)
	}
	t.pending.Add(-float64(len(ids)))
	// One threshold per eviction batch: the quantile over everything
	// decided so far, before this batch's durations fold in.
	slow := t.hist.Snapshot()
	t.mu.Unlock()

	var out []spanRec
	threshold := slow.Quantile(t.cfg.SlowQuantile)
	trustSlow := slow.Count >= uint64(t.cfg.MinSamples)
	for i, pt := range expired {
		if pt.rootDur >= 0 {
			t.hist.Observe(pt.rootDur)
		}
		switch {
		case pt.hasError:
			t.kept[tailReasonError].Inc()
			out = append(out, pt.spans...)
		case trustSlow && pt.rootDur >= 0 && pt.rootDur >= threshold:
			t.kept[tailReasonSlow].Inc()
			out = append(out, pt.spans...)
		case keepHash(ids[i], t.cfg.KeepRate):
			t.kept[tailReasonSampled].Inc()
			out = append(out, pt.spans...)
		default:
			t.droppedTraces.Inc()
			t.droppedSpans.Add(float64(len(pt.spans)))
		}
	}
	return out
}

// keepHash is the deterministic verdict on a boring trace: kept when
// its ID hashes into the bottom rate of the 64-bit range, so every
// collector replica, and every fragment of a trace that outlived its
// linger window, reaches the same one. FNV-1a alone avalanches poorly
// into the high bits for short, similar IDs (which trace IDs are), so
// the sum runs through the splitmix64 finalizer before the compare.
// The hash is unsalted: no other decision in the pipeline hashes trace
// IDs, so there is nothing to decorrelate it from.
func keepHash(traceID string, rate float64) bool {
	if rate >= 1 {
		return true
	}
	h := fnv.New64a()
	h.Write([]byte(traceID))
	x := h.Sum64()
	x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
	x = (x ^ x>>27) * 0x94d049bb133111eb
	return float64(x^x>>31) < rate*(1<<64)
}
