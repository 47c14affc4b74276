// Package stats provides the small statistics toolkit the reproduction
// harness uses to regenerate the paper's figures: fixed-width time
// series (submissions per hour, Figure 4), duration quantiles (queue
// delay), and deterministic ASCII renderings of tables and charts.
package stats

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"time"
)

// TimeSeries counts events in fixed-width buckets from Start.
type TimeSeries struct {
	Start  time.Time
	Width  time.Duration
	Counts []int
}

// NewTimeSeries covers [start, start+n*width).
func NewTimeSeries(start time.Time, width time.Duration, n int) *TimeSeries {
	return &TimeSeries{Start: start, Width: width, Counts: make([]int, n)}
}

// Add counts an event at t; out-of-range events are clamped into the
// first/last bucket and reported false.
func (ts *TimeSeries) Add(t time.Time) bool {
	idx := int(t.Sub(ts.Start) / ts.Width)
	if idx < 0 {
		ts.Counts[0]++
		return false
	}
	if idx >= len(ts.Counts) {
		ts.Counts[len(ts.Counts)-1]++
		return false
	}
	ts.Counts[idx]++
	return true
}

// Total sums all buckets.
func (ts *TimeSeries) Total() int {
	n := 0
	for _, c := range ts.Counts {
		n += c
	}
	return n
}

// Peak returns the maximum bucket count and its index.
func (ts *TimeSeries) Peak() (count, index int) {
	for i, c := range ts.Counts {
		if c > count {
			count, index = c, i
		}
	}
	return count, index
}

// BucketStart returns the start time of bucket i.
func (ts *TimeSeries) BucketStart(i int) time.Time {
	return ts.Start.Add(time.Duration(i) * ts.Width)
}

// HourOfDayProfile folds the series into 24 hour-of-day totals (the
// circadian shape of Figure 4). Width must divide time.Hour or be a
// multiple of it.
func (ts *TimeSeries) HourOfDayProfile() [24]int {
	var prof [24]int
	for i, c := range ts.Counts {
		h := ts.BucketStart(i).Hour()
		prof[h] += c
	}
	return prof
}

// Sparkline renders the series with eight-level block characters.
func (ts *TimeSeries) Sparkline() string {
	levels := []rune("▁▂▃▄▅▆▇█")
	peak, _ := ts.Peak()
	if peak == 0 {
		return strings.Repeat("▁", len(ts.Counts))
	}
	var b strings.Builder
	for _, c := range ts.Counts {
		idx := c * (len(levels) - 1) / peak
		b.WriteRune(levels[idx])
	}
	return b.String()
}

// FormatDaily renders per-bucket counts grouped by day (Figure 4's
// textual rendering): one row per day with the day's total and an hourly
// sparkline, assuming Width == time.Hour.
func (ts *TimeSeries) FormatDaily() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-12s %-8s %s\n", "Day", "Total", "Per-hour")
	perDay := 24
	for d := 0; d*perDay < len(ts.Counts); d++ {
		lo := d * perDay
		hi := lo + perDay
		if hi > len(ts.Counts) {
			hi = len(ts.Counts)
		}
		day := &TimeSeries{Start: ts.BucketStart(lo), Width: ts.Width, Counts: ts.Counts[lo:hi]}
		fmt.Fprintf(&b, "%-12s %-8d %s\n", day.Start.Format("2006-01-02"), day.Total(), day.Sparkline())
	}
	return b.String()
}

// Durations summarizes a sample of durations.
type Durations struct {
	sorted []time.Duration
	dirty  bool
	data   []time.Duration
}

// Add appends a sample.
func (d *Durations) Add(v time.Duration) {
	d.data = append(d.data, v)
	d.dirty = true
}

func (d *Durations) ensure() {
	if d.dirty || d.sorted == nil {
		d.sorted = append(d.sorted[:0], d.data...)
		sort.Slice(d.sorted, func(i, j int) bool { return d.sorted[i] < d.sorted[j] })
		d.dirty = false
	}
}

// Quantile returns the q-quantile (0 ≤ q ≤ 1) by nearest-rank.
func (d *Durations) Quantile(q float64) time.Duration {
	if len(d.data) == 0 {
		return 0
	}
	d.ensure()
	if q <= 0 {
		return d.sorted[0]
	}
	if q >= 1 {
		return d.sorted[len(d.sorted)-1]
	}
	idx := int(math.Ceil(q*float64(len(d.sorted)))) - 1
	if idx < 0 {
		idx = 0
	}
	return d.sorted[idx]
}

// Max returns the maximum sample.
func (d *Durations) Max() time.Duration { return d.Quantile(1) }

// Table renders aligned text tables deterministically.
type Table struct {
	Header []string
	Rows   [][]string
}

// AddRow appends a row (cells are stringified by the caller).
func (t *Table) AddRow(cells ...string) { t.Rows = append(t.Rows, cells) }

// String renders the table with column alignment.
func (t *Table) String() string {
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, r := range t.Rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			b.WriteString(c)
			if i < len(cells)-1 {
				b.WriteString(strings.Repeat(" ", widths[i]-len(c)))
			}
		}
		b.WriteByte('\n')
	}
	writeRow(t.Header)
	sep := make([]string, len(t.Header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, r := range t.Rows {
		writeRow(r)
	}
	return b.String()
}
