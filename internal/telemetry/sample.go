package telemetry

// Head-based trace sampling. At course scale every span of every
// submission is worth keeping; at the ROADMAP's million-user scale the
// export pipeline and the collector's docstore become the first
// casualty of the deadline-day surge they exist to explain. The
// Sampler makes the keep/drop call once, at the trace root, and the
// decision rides with the trace (X-RAI-Sampled header, JobRequest
// envelope) so every process touching the trace agrees — a trace is
// either complete or absent, never a connected-looking fragment.
//
// The decision is a deterministic hash of the trace ID, not a random
// draw: two processes configured with the same rate reach the same
// verdict even when the propagated decision got lost, and replaying a
// workload reproduces the same sampled set.

import (
	"hash/fnv"
	"sync"
	"sync/atomic"
)

// Decision is a tri-state sampling verdict.
type Decision uint8

const (
	// DecisionUnknown means no verdict has been made or propagated;
	// consumers fall back to their own hash decision.
	DecisionUnknown Decision = iota
	// DecisionKeep retains the trace end to end.
	DecisionKeep
	// DecisionDrop discards the trace's spans before export.
	DecisionDrop
)

// String renders the wire form carried by the X-RAI-Sampled header and
// the job envelope: "1" keep, "0" drop, "" unknown.
func (d Decision) String() string {
	switch d {
	case DecisionKeep:
		return "1"
	case DecisionDrop:
		return "0"
	default:
		return ""
	}
}

// ParseDecision reads the wire form back; anything unrecognized is
// DecisionUnknown (forward compatible with smarter encodings).
func ParseDecision(s string) Decision {
	switch s {
	case "1":
		return DecisionKeep
	case "0":
		return DecisionDrop
	default:
		return DecisionUnknown
	}
}

// samplerOverrides bounds the propagated-decision table: decisions
// noted for traces this process did not originate. FIFO eviction — a
// trace's spans all finish within seconds of the note, so the window
// only needs to cover in-flight traces.
const samplerOverrides = 4096

// Sampler decides which traces are exported. A nil *Sampler keeps
// everything (sampling disabled), so callers thread it without
// branching. All methods are safe for concurrent use.
type Sampler struct {
	rate      float64
	threshold uint64 // keep when hash(traceID) < threshold

	mu       sync.Mutex
	override map[string]Decision
	ring     []string // FIFO of override keys
	next     int

	sampled      atomic.Uint64 // root decisions: keep
	dropped      atomic.Uint64 // root decisions: drop
	spansDropped atomic.Uint64 // spans filtered by SpanSink

	mSampled      *Counter
	mDropped      *Counter
	mSpansDropped *Counter
}

// SamplerOption configures NewSampler.
type SamplerOption func(*Sampler)

// WithSamplerMetrics mirrors the sampler's counters onto reg:
// rai_trace_sampled_total / rai_trace_dropped_total (root decisions)
// and rai_trace_spans_dropped_total (spans filtered before export).
func WithSamplerMetrics(reg *Registry) SamplerOption {
	return func(s *Sampler) {
		if reg == nil {
			return
		}
		s.mSampled = reg.Counter("rai_trace_sampled_total", "trace roots kept by head sampling")
		s.mDropped = reg.Counter("rai_trace_dropped_total", "trace roots dropped by head sampling")
		s.mSpansDropped = reg.Counter("rai_trace_spans_dropped_total", "spans of unsampled traces filtered before export")
	}
}

// NewSampler returns a sampler keeping roughly rate of all traces
// (clamped to [0,1]). Rate 1 keeps everything but still counts
// decisions; rate 0 drops everything. A nil Sampler (sampling off) is
// cheaper when the rate is permanently 1.
func NewSampler(rate float64, opts ...SamplerOption) *Sampler {
	if rate < 0 {
		rate = 0
	}
	if rate > 1 {
		rate = 1
	}
	s := &Sampler{rate: rate, override: map[string]Decision{}, ring: make([]string, samplerOverrides)}
	if rate >= 1 {
		s.threshold = ^uint64(0)
	} else {
		s.threshold = uint64(rate * float64(1<<63) * 2)
	}
	for _, o := range opts {
		o(s)
	}
	return s
}

// Rate reports the configured sampling rate (1 on a nil sampler).
func (s *Sampler) Rate() float64 {
	if s == nil {
		return 1
	}
	return s.rate
}

// hashKeep is the deterministic verdict for a trace ID. FNV-1a alone
// avalanches poorly into the high bits for short, similar IDs (exactly
// what trace IDs are), so the sum runs through a splitmix64 finalizer
// before the threshold compare.
func (s *Sampler) hashKeep(traceID string) bool {
	if s.rate >= 1 {
		return true
	}
	if s.rate <= 0 {
		return false
	}
	h := fnv.New64a()
	h.Write([]byte(traceID))
	return mix64(h.Sum64()) < s.threshold
}

func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// Decide makes (and counts) the root decision for a new trace — the
// client-side entry point, called once per submission. The verdict is
// the deterministic hash unless a propagated decision was noted first.
func (s *Sampler) Decide(traceID string) Decision {
	if s == nil || traceID == "" {
		return DecisionKeep
	}
	d := s.lookup(traceID)
	if d == DecisionUnknown {
		if s.hashKeep(traceID) {
			d = DecisionKeep
		} else {
			d = DecisionDrop
		}
	}
	if d == DecisionKeep {
		s.sampled.Add(1)
		s.mSampled.Inc()
	} else {
		s.dropped.Add(1)
		s.mDropped.Inc()
	}
	return d
}

// Note records a decision propagated from another process (header or
// job envelope) so this process's spans for the trace follow the
// originator's verdict even if the local rate differs. Unknown
// decisions and empty IDs are ignored. The table is bounded; evicted
// traces fall back to the hash, which agrees whenever rates match.
func (s *Sampler) Note(traceID string, d Decision) {
	if s == nil || traceID == "" || d == DecisionUnknown {
		return
	}
	s.mu.Lock()
	if _, ok := s.override[traceID]; !ok {
		if old := s.ring[s.next]; old != "" {
			delete(s.override, old)
		}
		s.ring[s.next] = traceID
		s.next = (s.next + 1) % len(s.ring)
	}
	s.override[traceID] = d
	s.mu.Unlock()
}

func (s *Sampler) lookup(traceID string) Decision {
	s.mu.Lock()
	d := s.override[traceID]
	s.mu.Unlock()
	return d
}

// Keep reports whether the trace's spans should be exported: the noted
// decision when one was propagated, the deterministic hash otherwise.
// Nil sampler and empty trace IDs keep everything.
func (s *Sampler) Keep(traceID string) bool {
	if s == nil || traceID == "" {
		return true
	}
	switch s.lookup(traceID) {
	case DecisionKeep:
		return true
	case DecisionDrop:
		return false
	}
	return s.hashKeep(traceID)
}

// Counts reports the root decisions and filtered spans so far — the
// honest-accounting view the collector e2e test asserts against.
func (s *Sampler) Counts() (sampled, dropped, spansDropped uint64) {
	if s == nil {
		return 0, 0, 0
	}
	return s.sampled.Load(), s.dropped.Load(), s.spansDropped.Load()
}

// SpanSink wraps an export sink (Exporter.ExportSpan) with the keep
// filter: spans of unsampled traces are counted and discarded before
// they cost export-queue space or broker bandwidth. A nil sampler
// returns next unchanged.
func (s *Sampler) SpanSink(next func(SpanData)) func(SpanData) {
	if s == nil || next == nil {
		return next
	}
	return func(d SpanData) {
		if !s.Keep(d.TraceID) {
			s.spansDropped.Add(1)
			s.mSpansDropped.Inc()
			return
		}
		next(d)
	}
}
