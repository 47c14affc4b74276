// Package telemetry is the stdlib-only observability substrate for the
// RAI deployment: a concurrency-safe metrics registry with
// Prometheus-compatible text exposition, and a lightweight span tracer
// whose IDs travel inside job messages so one submission yields a
// single connected trace across client, broker, and worker.
//
// Instruments are safe for concurrent use and cheap on the hot path
// (lock-free atomics once obtained); callers on tight loops should
// fetch the instrument once and reuse it rather than re-resolving by
// name per event. All instrument methods are nil-receiver safe, so a
// component whose telemetry is disabled simply holds nil instruments
// and pays a single pointer test per event.
package telemetry

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Label is one metric dimension. Keep cardinality bounded: label by
// operation or topic class, never by job or user ID.
type Label struct {
	Key   string
	Value string
}

// L is shorthand for constructing a Label.
func L(key, value string) Label { return Label{Key: key, Value: value} }

type kind int

const (
	kindCounter kind = iota
	kindGauge
	kindHistogram
)

func (k kind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge:
		return "gauge"
	default:
		return "histogram"
	}
}

// Registry holds metric families and renders them in Prometheus text
// exposition format. The zero value is not usable; use NewRegistry. A
// nil *Registry is valid and hands out nil (no-op) instruments.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
}

type family struct {
	name string
	help string
	kind kind

	mu     sync.Mutex
	series map[string]*series // keyed by rendered label set
}

type series struct {
	labels string // rendered `k="v",...` (sorted), "" if none

	// counter/gauge state: float64 bits.
	bits atomic.Uint64
	// gaugeFunc, if set, wins over bits at read time.
	fn func() float64

	// hist is the series' state in a histogram family, nil otherwise.
	hist *HDRHistogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: map[string]*family{}}
}

func (r *Registry) family(name, help string, k kind) *family {
	r.mu.Lock()
	defer r.mu.Unlock()
	f, ok := r.families[name]
	if !ok {
		f = &family{name: name, help: help, kind: k, series: map[string]*series{}}
		r.families[name] = f
		return f
	}
	if f.kind != k {
		panic(fmt.Sprintf("telemetry: %s registered as %s, requested as %s", name, f.kind, k))
	}
	return f
}

func renderLabels(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	ls := append([]Label(nil), labels...)
	sort.Slice(ls, func(i, j int) bool { return ls[i].Key < ls[j].Key })
	var b strings.Builder
	for i, l := range ls {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Key)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(l.Value))
		b.WriteByte('"')
	}
	return b.String()
}

func escapeLabel(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(v)
}

func (f *family) get(labels []Label) *series {
	key := renderLabels(labels)
	f.mu.Lock()
	defer f.mu.Unlock()
	s, ok := f.series[key]
	if !ok {
		s = &series{labels: key}
		if f.kind == kindHistogram {
			s.hist = NewHDRHistogram()
		}
		f.series[key] = s
	}
	return s
}

func addFloat(bits *atomic.Uint64, delta float64) {
	for {
		old := bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + delta)
		if bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Counter is a monotonically increasing metric.
type Counter struct{ s *series }

// Counter registers (or fetches) a counter series. Nil-registry safe.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	if r == nil {
		return nil
	}
	return &Counter{s: r.family(name, help, kindCounter).get(labels)}
}

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Add increases the counter; negative deltas are ignored.
func (c *Counter) Add(delta float64) {
	if c == nil || c.s == nil || delta < 0 {
		return
	}
	addFloat(&c.s.bits, delta)
}

// Gauge is a metric that can go up and down.
type Gauge struct{ s *series }

// Gauge registers (or fetches) a gauge series. Nil-registry safe.
func (r *Registry) Gauge(name, help string, labels ...Label) *Gauge {
	if r == nil {
		return nil
	}
	return &Gauge{s: r.family(name, help, kindGauge).get(labels)}
}

// Set stores an absolute value.
func (g *Gauge) Set(v float64) {
	if g == nil || g.s == nil {
		return
	}
	g.s.bits.Store(math.Float64bits(v))
}

// Add shifts the gauge by delta (may be negative).
func (g *Gauge) Add(delta float64) {
	if g == nil || g.s == nil {
		return
	}
	addFloat(&g.s.bits, delta)
}

// GaugeFunc registers a gauge whose value is computed by fn at read
// time — the idiom for exporting state another subsystem already
// tracks (queue depth, bytes resident) without double bookkeeping.
func (r *Registry) GaugeFunc(name, help string, fn func() float64, labels ...Label) *Gauge {
	if r == nil {
		return nil
	}
	s := r.family(name, help, kindGauge).get(labels)
	s.fn = fn
	return &Gauge{s: s}
}

// Histogram registers (or fetches) a histogram series. Every series in
// a family shares HDRHistogram's fixed log-linear layout, so there are
// no bucket bounds to choose. Nil-registry safe (returns a nil
// histogram, which records nothing).
func (r *Registry) Histogram(name, help string, labels ...Label) *HDRHistogram {
	if r == nil {
		return nil
	}
	return r.family(name, help, kindHistogram).get(labels).hist
}

// Value returns the current value of a counter or gauge series, or the
// sample count of a histogram series. ok is false if no such series
// has been registered.
func (r *Registry) Value(name string, labels ...Label) (v float64, ok bool) {
	if r == nil {
		return 0, false
	}
	r.mu.Lock()
	f, ok := r.families[name]
	r.mu.Unlock()
	if !ok {
		return 0, false
	}
	key := renderLabels(labels)
	f.mu.Lock()
	s, ok := f.series[key]
	f.mu.Unlock()
	if !ok {
		return 0, false
	}
	switch f.kind {
	case kindHistogram:
		n, _ := s.hist.Totals()
		return float64(n), true
	default:
		if s.fn != nil {
			return s.fn(), true
		}
		return math.Float64frombits(s.bits.Load()), true
	}
}
