package stats

import (
	"strings"
	"testing"
	"testing/quick"
	"time"
)

var t0 = time.Date(2016, 12, 2, 0, 0, 0, 0, time.UTC)

func TestTimeSeriesAddAndTotal(t *testing.T) {
	ts := NewTimeSeries(t0, time.Hour, 48)
	ts.Add(t0)
	ts.Add(t0.Add(30 * time.Minute))
	ts.Add(t0.Add(time.Hour))
	ts.Add(t0.Add(47*time.Hour + 59*time.Minute))
	if ts.Counts[0] != 2 || ts.Counts[1] != 1 || ts.Counts[47] != 1 {
		t.Fatalf("counts = %v", ts.Counts[:3])
	}
	if ts.Total() != 4 {
		t.Fatalf("Total = %d", ts.Total())
	}
}

func TestTimeSeriesClampsOutOfRange(t *testing.T) {
	ts := NewTimeSeries(t0, time.Hour, 2)
	if ts.Add(t0.Add(-time.Hour)) {
		t.Error("before-range add reported in-range")
	}
	if ts.Add(t0.Add(100 * time.Hour)) {
		t.Error("after-range add reported in-range")
	}
	if ts.Counts[0] != 1 || ts.Counts[1] != 1 {
		t.Fatalf("clamped counts = %v", ts.Counts)
	}
}

func TestPeakAndBucketStart(t *testing.T) {
	ts := NewTimeSeries(t0, time.Hour, 5)
	for i := 0; i < 7; i++ {
		ts.Add(t0.Add(3 * time.Hour))
	}
	ts.Add(t0)
	count, idx := ts.Peak()
	if count != 7 || idx != 3 {
		t.Fatalf("Peak = %d@%d", count, idx)
	}
	if !ts.BucketStart(3).Equal(t0.Add(3 * time.Hour)) {
		t.Fatalf("BucketStart = %v", ts.BucketStart(3))
	}
}

func TestHourOfDayProfile(t *testing.T) {
	ts := NewTimeSeries(t0, time.Hour, 48)
	ts.Add(t0.Add(14 * time.Hour)) // 14:00 day one
	ts.Add(t0.Add(38 * time.Hour)) // 14:00 day two
	ts.Add(t0.Add(3 * time.Hour))
	prof := ts.HourOfDayProfile()
	if prof[14] != 2 || prof[3] != 1 {
		t.Fatalf("profile = %v", prof)
	}
}

func TestSparklineAndDaily(t *testing.T) {
	ts := NewTimeSeries(t0, time.Hour, 24)
	for i := 0; i < 24; i++ {
		for j := 0; j <= i; j++ {
			ts.Add(t0.Add(time.Duration(i) * time.Hour))
		}
	}
	spark := ts.Sparkline()
	if len([]rune(spark)) != 24 {
		t.Fatalf("sparkline runes = %d", len([]rune(spark)))
	}
	if !strings.HasSuffix(spark, "█") {
		t.Errorf("peak bucket not full block: %q", spark)
	}
	daily := ts.FormatDaily()
	if !strings.Contains(daily, "2016-12-02") || !strings.Contains(daily, "300") {
		t.Errorf("daily:\n%s", daily)
	}
	// Empty series renders the floor.
	empty := NewTimeSeries(t0, time.Hour, 3)
	if empty.Sparkline() != "▁▁▁" {
		t.Errorf("empty sparkline = %q", empty.Sparkline())
	}
}

func TestDurationsQuantiles(t *testing.T) {
	var d Durations
	for i := 1; i <= 100; i++ {
		d.Add(time.Duration(i) * time.Second)
	}
	if got := d.Quantile(0.5); got != 50*time.Second {
		t.Errorf("p50 = %v", got)
	}
	if got := d.Quantile(0.95); got != 95*time.Second {
		t.Errorf("p95 = %v", got)
	}
	if d.Quantile(0) != time.Second || d.Max() != 100*time.Second {
		t.Errorf("min/max = %v/%v", d.Quantile(0), d.Max())
	}
}

func TestDurationsEmpty(t *testing.T) {
	var d Durations
	if d.Quantile(0.5) != 0 || d.Max() != 0 {
		t.Error("empty Durations must return zeros")
	}
}

func TestDurationsQuantileAfterInterleavedAdds(t *testing.T) {
	var d Durations
	d.Add(3 * time.Second)
	_ = d.Quantile(0.5)
	d.Add(time.Second) // must re-sort
	if got := d.Quantile(0); got != time.Second {
		t.Errorf("min after re-add = %v", got)
	}
}

// Property: quantile is monotonic in q and bounded by min/max.
func TestQuickQuantileMonotonic(t *testing.T) {
	f := func(samples []uint32, qa, qb float64) bool {
		if len(samples) == 0 {
			return true
		}
		var d Durations
		for _, s := range samples {
			d.Add(time.Duration(s))
		}
		qa = clamp01(qa)
		qb = clamp01(qb)
		if qa > qb {
			qa, qb = qb, qa
		}
		va, vb := d.Quantile(qa), d.Quantile(qb)
		return va <= vb && va >= d.Quantile(0) && vb <= d.Max()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func clamp01(v float64) float64 {
	if v != v || v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}

func TestTableAlignment(t *testing.T) {
	tbl := &Table{Header: []string{"Name", "Value"}}
	tbl.AddRow("short", "1")
	tbl.AddRow("a-much-longer-name", "22222")
	out := tbl.String()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("lines = %d:\n%s", len(lines), out)
	}
	// The value column starts at the same offset on every row.
	idx := strings.Index(lines[2], "1")
	if !strings.HasPrefix(lines[3][idx:], "22222") {
		t.Errorf("misaligned:\n%s", out)
	}
	if !strings.Contains(lines[1], "----") {
		t.Errorf("missing separator:\n%s", out)
	}
}
