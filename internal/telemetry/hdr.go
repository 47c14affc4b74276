package telemetry

// HDR-style log-linear latency histogram, the one histogram type every
// latency in the deployment lands in: request, job and queue latencies
// need tail quantiles (p99, p999) over ranges spanning microseconds to
// minutes with bounded relative error. This is the classic
// HdrHistogram bucketing: values are indexed by a power-of-two exponent
// (the "bucket") subdivided into linear sub-buckets, giving a constant
// relative error of 1/hdrSubHalf (~3.1%) at every magnitude.

import (
	"fmt"
	"io"
	"math"
	"math/bits"
	"sync/atomic"
)

const (
	// hdrSubBits fixes the sub-bucket resolution: 1<<hdrSubBits linear
	// slots per power of two, so quantile error is ≤ 2^-(hdrSubBits-1).
	hdrSubBits  = 6
	hdrSubCount = 1 << hdrSubBits
	hdrSubHalf  = hdrSubCount / 2
	// hdrBuckets bounds the dynamic range: the top bucket's upper edge is
	// hdrSubCount << (hdrBuckets-1) ticks ≈ 2^45 µs ≈ 13 months. Values
	// above clamp into the last slot.
	hdrBuckets = 40
	hdrSlots   = (hdrBuckets + 1) * hdrSubHalf
	// hdrTick is the recording unit: one microsecond, expressed in
	// seconds (the unit Observe takes).
	hdrTick = 1e-6
)

// HDRHistogram is a concurrency-safe log-linear histogram of seconds.
// The zero value is NOT usable; use NewHDRHistogram. All methods are
// nil-receiver safe so disabled recorders cost one pointer test.
type HDRHistogram struct {
	counts  [hdrSlots]atomic.Uint64
	count   atomic.Uint64
	sumBits atomic.Uint64 // float64 bits of the sum in seconds
	minBits atomic.Uint64 // float64 bits of the smallest observed value
	maxBits atomic.Uint64 // float64 bits of the largest observed value
	// exemplars holds one (value, trace ID) pair per power-of-two
	// exposition edge, latest observation wins — the bounded
	// metrics→trace link: a scrape of the histogram names a concrete
	// trace to pull up for every populated latency band.
	exemplars [hdrBuckets]atomic.Pointer[Exemplar]
}

// Exemplar links one observed value to the trace that produced it.
type Exemplar struct {
	Value   float64 `json:"value"`
	TraceID string  `json:"trace_id"`
}

// hdrEdgeIndex maps a tick count onto its power-of-two exposition edge
// (the `le` bucket the exposition emits), clamping overflow into the
// last finite edge.
func hdrEdgeIndex(ticks uint64) int {
	b := bits.Len64(ticks|(hdrSubCount-1)) - hdrSubBits
	if b >= hdrBuckets {
		return hdrBuckets - 1
	}
	return b
}

// NewHDRHistogram returns an empty histogram.
func NewHDRHistogram() *HDRHistogram {
	h := &HDRHistogram{}
	h.minBits.Store(math.Float64bits(math.Inf(1)))
	return h
}

// hdrIndex maps a tick count onto its slot (HdrHistogram indexing).
func hdrIndex(v uint64) int {
	bucket := bits.Len64(v|(hdrSubCount-1)) - hdrSubBits
	if bucket >= hdrBuckets {
		return hdrSlots - 1
	}
	sub := v >> uint(bucket)
	return (bucket+1)*hdrSubHalf + int(sub) - hdrSubHalf
}

// hdrSlotEdges returns a slot's value range [lo, hi) in ticks.
func hdrSlotEdges(idx int) (lo, hi uint64) {
	bucket := idx/hdrSubHalf - 1
	sub := uint64(idx%hdrSubHalf + hdrSubHalf)
	if idx < hdrSubCount {
		bucket, sub = 0, uint64(idx)
	}
	width := uint64(1) << uint(bucket)
	return sub << uint(bucket), sub<<uint(bucket) + width
}

// Observe records one sample, given in seconds. Negative values record
// as zero; values beyond the trackable range clamp into the top slot.
func (h *HDRHistogram) Observe(seconds float64) {
	if h == nil {
		return
	}
	var ticks uint64
	if seconds > 0 {
		ticks = uint64(seconds / hdrTick)
	} else {
		seconds = 0
	}
	h.counts[hdrIndex(ticks)].Add(1)
	h.count.Add(1)
	addFloat(&h.sumBits, seconds)
	for {
		old := h.minBits.Load()
		if seconds >= math.Float64frombits(old) || h.minBits.CompareAndSwap(old, math.Float64bits(seconds)) {
			break
		}
	}
	for {
		old := h.maxBits.Load()
		if seconds <= math.Float64frombits(old) || h.maxBits.CompareAndSwap(old, math.Float64bits(seconds)) {
			break
		}
	}
}

// ObserveExemplar records a sample and, when traceID is non-empty,
// stores it as the exemplar for the sample's exposition bucket
// (latest wins; at most one exemplar per bucket, so the set is bounded
// by the bucket count). Callers should only pass trace IDs of sampled
// traces — an exemplar pointing at a dropped trace is a dead link.
func (h *HDRHistogram) ObserveExemplar(seconds float64, traceID string) {
	if h == nil {
		return
	}
	h.Observe(seconds)
	if traceID == "" {
		return
	}
	var ticks uint64
	if seconds > 0 {
		ticks = uint64(seconds / hdrTick)
	} else {
		seconds = 0
	}
	h.exemplars[hdrEdgeIndex(ticks)].Store(&Exemplar{Value: seconds, TraceID: traceID})
}

// Totals reports the sample count and the sum in seconds.
func (h *HDRHistogram) Totals() (count uint64, sum float64) {
	if h == nil {
		return 0, 0
	}
	return h.count.Load(), math.Float64frombits(h.sumBits.Load())
}

// Snapshot captures a point-in-time copy. Concurrent Observes during
// the copy may straddle the count/sum/slot reads; each sample is still
// either fully visible in a later snapshot, so monitoring loops that
// diff successive snapshots never lose data.
func (h *HDRHistogram) Snapshot() *HDRSnapshot {
	if h == nil {
		return nil
	}
	s := &HDRSnapshot{
		Counts: make([]uint64, hdrSlots),
		Sum:    math.Float64frombits(h.sumBits.Load()),
	}
	var total uint64
	for i := range h.counts {
		c := h.counts[i].Load()
		s.Counts[i] = c
		total += c
	}
	// Derive the count from the slots so quantile ranks are consistent
	// with the copied buckets even mid-Observe.
	s.Count = total
	if min := math.Float64frombits(h.minBits.Load()); !math.IsInf(min, 1) {
		s.Min = min
	}
	s.Max = math.Float64frombits(h.maxBits.Load())
	for edge := range h.exemplars {
		if ex := h.exemplars[edge].Load(); ex != nil {
			s.Exemplars = append(s.Exemplars, BucketExemplar{Edge: edge, Value: ex.Value, TraceID: ex.TraceID})
		}
	}
	return s
}

// HDRSnapshot is an immutable view of an HDRHistogram.
type HDRSnapshot struct {
	Counts []uint64 `json:"counts"`
	Count  uint64   `json:"count"`
	Sum    float64  `json:"sum"`
	Min    float64  `json:"min"`
	Max    float64  `json:"max"`
	// Exemplars are the per-edge trace links, sorted by Edge.
	Exemplars []BucketExemplar `json:"exemplars,omitempty"`
}

// BucketExemplar is one exposition bucket's trace link.
type BucketExemplar struct {
	Edge    int     `json:"edge"` // power-of-two exposition edge index
	Value   float64 `json:"value"`
	TraceID string  `json:"trace_id"`
}

// exemplarAt returns the snapshot's exemplar for an edge, nil if none.
func (s *HDRSnapshot) exemplarAt(edge int) *BucketExemplar {
	for i := range s.Exemplars {
		if s.Exemplars[i].Edge == edge {
			return &s.Exemplars[i]
		}
	}
	return nil
}

// Quantile estimates the q-quantile (q in [0,1]) in seconds: the upper
// edge of the slot holding the sample of that rank, clamped to the
// recorded Max so p100 is exact. Returns 0 on an empty snapshot.
func (s *HDRSnapshot) Quantile(q float64) float64 {
	if s == nil || s.Count == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := uint64(math.Ceil(q * float64(s.Count)))
	if rank == 0 {
		rank = 1
	}
	var cum uint64
	for i, c := range s.Counts {
		cum += c
		if cum >= rank {
			_, hi := hdrSlotEdges(i)
			v := float64(hi) * hdrTick
			if v > s.Max && s.Max > 0 {
				v = s.Max
			}
			return v
		}
	}
	return s.Max
}

// Mean reports the arithmetic mean in seconds.
func (s *HDRSnapshot) Mean() float64 {
	if s == nil || s.Count == 0 {
		return 0
	}
	return s.Sum / float64(s.Count)
}

// write renders the snapshot as one series of a Prometheus histogram
// family: cumulative `le` buckets at every power-of-two edge from the
// first up to the highest populated one, the mandatory +Inf, then _sum
// and _count. rendered is the series' label set (renderLabels).
// Buckets holding an exemplar carry it as an OpenMetrics-style suffix:
//
//	name_bucket{le="0.065536"} 12 # {trace_id="abc"} 0.041
func (s *HDRSnapshot) write(w io.Writer, name, rendered string) error {
	// Fold slots into power-of-two edges: edge b covers ticks
	// < hdrSubCount<<b, i.e. slots below (b+2)*hdrSubHalf.
	var cum uint64
	maxEdge := hdrMaxPopulatedEdge(s.Counts)
	slot := 0
	for b := 0; b <= maxEdge; b++ {
		limit := (b + 2) * hdrSubHalf // first slot of the next edge
		if b == 0 {
			limit = hdrSubCount
		}
		for ; slot < limit && slot < len(s.Counts); slot++ {
			cum += s.Counts[slot]
		}
		le := float64(uint64(hdrSubCount)<<uint(b)) * hdrTick
		if _, err := fmt.Fprintf(w, "%s_bucket{%s} %d%s\n", name, withLE(rendered, formatFloat(le)), cum, exemplarSuffix(s.exemplarAt(b))); err != nil {
			return err
		}
	}
	for ; slot < len(s.Counts); slot++ {
		cum += s.Counts[slot]
	}
	// Exemplars above the last rendered edge (clamped overflow) ride the
	// +Inf bucket; keep the largest.
	var inf *BucketExemplar
	for i := range s.Exemplars {
		if ex := &s.Exemplars[i]; ex.Edge > maxEdge && (inf == nil || ex.Value > inf.Value) {
			inf = ex
		}
	}
	if _, err := fmt.Fprintf(w, "%s_bucket{%s} %d%s\n", name, withLE(rendered, "+Inf"), cum, exemplarSuffix(inf)); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "%s_sum%s %s\n", name, braced(rendered), formatFloat(s.Sum)); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "%s_count%s %d\n", name, braced(rendered), s.Count)
	return err
}

// exemplarSuffix renders the OpenMetrics exemplar tail for a bucket
// line ("" when the bucket has none).
func exemplarSuffix(ex *BucketExemplar) string {
	if ex == nil || ex.TraceID == "" {
		return ""
	}
	return fmt.Sprintf(` # {trace_id="%s"} %s`, escapeLabel(ex.TraceID), formatFloat(ex.Value))
}

// hdrMaxPopulatedEdge returns the highest power-of-two edge index that
// still has samples at or below it (minimum 0 so at least one finite
// bucket is always emitted).
func hdrMaxPopulatedEdge(counts []uint64) int {
	last := 0
	for i, c := range counts {
		if c == 0 {
			continue
		}
		b := i/hdrSubHalf - 1
		if i < hdrSubCount {
			b = 0
		}
		if b > last {
			last = b
		}
	}
	return last
}
