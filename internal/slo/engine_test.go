package slo

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"rai/internal/clock"
	"rai/internal/telemetry"
)

var t0 = time.Date(2016, 11, 28, 9, 0, 0, 0, time.UTC)

// snapOf builds a synthetic scrape snapshot from name/labels/value
// triples.
func snapOf(samples ...telemetry.Sample) *telemetry.Snapshot {
	return &telemetry.Snapshot{Samples: samples}
}

func s(name string, value float64, kv ...string) telemetry.Sample {
	labels := map[string]string{}
	for i := 0; i+1 < len(kv); i += 2 {
		labels[kv[i]] = kv[i+1]
	}
	return telemetry.Sample{Name: name, Labels: labels, Value: value}
}

func availObjective(target float64) Objective {
	return Objective{
		Name:   "avail",
		Target: target,
		Total:  &Selector{Name: "rai_worker_jobs_total"},
		Bad:    &Selector{Name: "rai_worker_jobs_total", Labels: map[string]string{"status": "failed"}},
	}
}

// TestCountsAvailability: the total selector aggregates every status
// and every source; the bad selector only the failed series.
func TestCountsAvailability(t *testing.T) {
	o := availObjective(0.99)
	snaps := []*telemetry.Snapshot{
		snapOf(
			s("rai_worker_jobs_total", 90, "status", "succeeded"),
			s("rai_worker_jobs_total", 10, "status", "failed"),
		),
		snapOf(
			s("rai_worker_jobs_total", 50, "status", "succeeded"),
			s("rai_worker_jobs_total", 5, "status", "rejected"),
		),
	}
	bad, total := counts(&o, snaps)
	if bad != 10 || total != 155 {
		t.Fatalf("bad=%v total=%v, want 10/155", bad, total)
	}
}

// TestCountsLatency: good = cumulative bucket at the smallest edge >=
// threshold, summed across sources.
func TestCountsLatency(t *testing.T) {
	o := Objective{
		Name: "lat", Target: 0.95,
		Histogram:        &Selector{Name: "rai_worker_job_seconds"},
		ThresholdSeconds: 30,
	}
	mk := func(le string, v float64) telemetry.Sample {
		return s("rai_worker_job_seconds_bucket", v, "le", le)
	}
	snaps := []*telemetry.Snapshot{
		snapOf(mk("10", 50), mk("30", 80), mk("60", 95), mk("+Inf", 100),
			s("rai_worker_job_seconds_count", 100)),
		snapOf(mk("10", 5), mk("30", 10), mk("60", 10), mk("+Inf", 10),
			s("rai_worker_job_seconds_count", 10)),
	}
	bad, total := counts(&o, snaps)
	if total != 110 || bad != 110-90 {
		t.Fatalf("bad=%v total=%v, want 20/110", bad, total)
	}

	// A threshold between edges quantizes up to the next edge (60).
	o.ThresholdSeconds = 31
	if bad, _ := counts(&o, snaps); bad != 110-105 {
		t.Fatalf("off-edge threshold: bad=%v, want 5", bad)
	}
	// A threshold beyond every finite edge falls back to +Inf: all good.
	o.ThresholdSeconds = 1e6
	if bad, _ := counts(&o, snaps); bad != 0 {
		t.Fatalf("over-scale threshold: bad=%v, want 0", bad)
	}
}

// TestDefaultObjectivesOverRealExposition feeds the stock objectives
// scrapes of real registries rather than hand-written bucket lines. The
// one histogram layout exposes power-of-two multiples of 64 µs, so the
// 60 s worker-latency threshold takes effect at 67.108864 s: a 40 s job
// is good, a 70 s job is bad. It also pins the per-series resolution:
// a source (or an op series) whose samples are all fast exposes no edge
// near the threshold, and still counts as good.
func TestDefaultObjectivesOverRealExposition(t *testing.T) {
	scrape := func(reg *telemetry.Registry) *telemetry.Snapshot {
		var buf bytes.Buffer
		if err := reg.WritePrometheus(&buf); err != nil {
			t.Fatal(err)
		}
		snap, err := telemetry.ParseText(&buf)
		if err != nil {
			t.Fatal(err)
		}
		return snap
	}
	objective := func(name string) *Objective {
		for _, o := range DefaultObjectives() {
			if o.Name == name {
				return &o
			}
		}
		t.Fatalf("no default objective %q", name)
		return nil
	}

	busy := telemetry.NewRegistry()
	jobs := busy.Histogram("rai_worker_job_seconds", "")
	jobs.Observe(40)
	jobs.Observe(70)
	idle := telemetry.NewRegistry()
	idle.Histogram("rai_worker_job_seconds", "").Observe(0.05)
	snaps := []*telemetry.Snapshot{scrape(busy), scrape(idle)}

	lat := objective("worker-latency")
	if bad, total := counts(lat, snaps); bad != 1 || total != 3 {
		t.Errorf("worker-latency: bad=%v total=%v, want 1/3 (70 s bad; 40 s and 0.05 s good)", bad, total)
	}
	// The effective edge, by name: a change of the histogram's layout
	// (hdrSubBits, hdrTick) moves it and must fail here.
	const wantEdge = 67.108864
	edge := inf
	for _, smp := range snaps[0].Samples {
		le, ok := parseLE(smp.Labels["le"])
		if smp.Name == "rai_worker_job_seconds_bucket" && ok && le >= lat.ThresholdSeconds && le < edge {
			edge = le
		}
	}
	if edge != wantEdge {
		t.Errorf("effective worker-latency threshold = %v s, want %v s", edge, wantEdge)
	}

	fs := telemetry.NewRegistry()
	fs.Histogram("rai_objstore_request_seconds", "", telemetry.L("op", "get")).Observe(0.01)
	put := fs.Histogram("rai_objstore_request_seconds", "", telemetry.L("op", "put"))
	put.Observe(0.5)
	put.Observe(2)
	if bad, total := counts(objective("objstore-latency"), []*telemetry.Snapshot{scrape(fs)}); bad != 1 || total != 3 {
		t.Errorf("objstore-latency: bad=%v total=%v, want 1/3 (only the 2 s put is over 1.048576 s)", bad, total)
	}
}

// TestMultiWindowBurn drives a full incident on a virtual clock: clean
// traffic, a hard outage that fires the rule on both windows, then a
// recovery where the short window clears the alert long before the
// long window forgets — the entire point of multi-window burn rates.
func TestMultiWindowBurn(t *testing.T) {
	clk := clock.NewVirtual(t0)
	rules := []Rule{{Name: "page", Long: 10 * time.Minute, Short: 2 * time.Minute, Burn: 10}}
	e := NewEngine([]Objective{availObjective(0.99)}, WithClock(clk), WithRules(rules))

	good, bad := 0.0, 0.0
	observe := func() {
		e.Observe(snapOf(
			s("rai_worker_jobs_total", good, "status", "succeeded"),
			s("rai_worker_jobs_total", bad, "status", "failed"),
		))
	}
	tick := func(dGood, dBad float64) {
		clk.Advance(time.Minute)
		good, bad = good+dGood, bad+dBad
		observe()
	}
	observe()
	// 10 clean minutes.
	for i := 0; i < 10; i++ {
		tick(100, 0)
	}
	st := e.Evaluate()
	if len(st) != 1 || !st[0].Healthy || st[0].ErrorRate != 0 {
		t.Fatalf("clean traffic: %+v", st)
	}
	if st[0].BudgetRemaining != 1 {
		t.Errorf("clean budget = %v, want 1", st[0].BudgetRemaining)
	}

	// Outage: half of everything fails for 3 minutes. Burn = 0.5/0.01 =
	// 50 >= 10 on both windows.
	for i := 0; i < 3; i++ {
		tick(50, 50)
	}
	st = e.Evaluate()
	if st[0].Healthy {
		t.Fatalf("outage not detected: %+v", st[0])
	}
	rs := st[0].Rules[0]
	if !rs.Firing || rs.ShortBurn < 10 || rs.LongBurn < 10 {
		t.Fatalf("rule = %+v, want firing with both burns >= 10", rs)
	}

	// Recovery: clean traffic again. After 3 clean minutes the short
	// window (2m) is clean, so the page clears — even though the long
	// window still remembers the outage.
	for i := 0; i < 3; i++ {
		tick(100, 0)
	}
	st = e.Evaluate()
	rs = st[0].Rules[0]
	if rs.Firing {
		t.Fatalf("page did not clear after recovery: %+v", rs)
	}
	if !st[0].Healthy {
		t.Fatalf("recovered objective unhealthy: %+v", st[0])
	}
	if rs.LongBurn < 10 {
		t.Errorf("long window forgot the outage too fast: burn = %v", rs.LongBurn)
	}
	if st[0].BudgetRemaining >= 1 {
		t.Errorf("budget should show the outage: %v", st[0].BudgetRemaining)
	}
}

// TestOneShotEvaluation: a single observation evaluates against the
// counters' whole lifetime, so `raiadmin health` works from one scrape.
func TestOneShotEvaluation(t *testing.T) {
	clk := clock.NewVirtual(t0)
	e := NewEngine([]Objective{availObjective(0.99)}, WithClock(clk))
	e.Observe(snapOf(
		s("rai_worker_jobs_total", 50, "status", "succeeded"),
		s("rai_worker_jobs_total", 50, "status", "failed"),
	))
	st := e.Evaluate()
	if st[0].ErrorRate != 0.5 {
		t.Fatalf("one-shot error rate = %v, want 0.5", st[0].ErrorRate)
	}
	if st[0].Healthy {
		t.Fatal("50% failure rate evaluated healthy")
	}
}

// TestCounterResetClamped: a daemon restart drops cumulative counters;
// the rate must clamp to zero, never go negative.
func TestCounterResetClamped(t *testing.T) {
	clk := clock.NewVirtual(t0)
	e := NewEngine([]Objective{availObjective(0.99)}, WithClock(clk))
	e.Observe(snapOf(s("rai_worker_jobs_total", 100, "status", "failed")))
	clk.Advance(time.Minute)
	e.Observe(snapOf(s("rai_worker_jobs_total", 3, "status", "failed"),
		s("rai_worker_jobs_total", 100, "status", "succeeded")))
	for _, st := range e.Evaluate() {
		if st.ErrorRate < 0 {
			t.Fatalf("negative error rate after counter reset: %+v", st)
		}
	}
}

// TestExportGauges: the engine's state round-trips through Prometheus
// exposition with the promised rai_slo_* names.
func TestExportGauges(t *testing.T) {
	clk := clock.NewVirtual(t0)
	rules := []Rule{{Name: "page", Long: 10 * time.Minute, Short: 2 * time.Minute, Burn: 10}}
	e := NewEngine([]Objective{availObjective(0.99)}, WithClock(clk), WithRules(rules))
	reg := telemetry.NewRegistry()
	e.Export(reg)

	e.Observe(snapOf(
		s("rai_worker_jobs_total", 50, "status", "succeeded"),
		s("rai_worker_jobs_total", 50, "status", "failed"),
	))

	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	snap, err := telemetry.ParseText(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("exposition unparseable: %v\n%s", err, buf.String())
	}
	if v, ok := snap.Value("rai_slo_healthy", telemetry.L("objective", "avail")); !ok || v != 0 {
		t.Errorf("rai_slo_healthy = %v (ok=%v), want 0", v, ok)
	}
	if v, ok := snap.Value("rai_slo_target", telemetry.L("objective", "avail")); !ok || v != 0.99 {
		t.Errorf("rai_slo_target = %v (ok=%v), want 0.99", v, ok)
	}
	if v, ok := snap.Value("rai_slo_error_budget_remaining_ratio", telemetry.L("objective", "avail")); !ok || v >= 0 {
		t.Errorf("budget remaining = %v (ok=%v), want negative (burn 50)", v, ok)
	}
	for _, w := range []string{"10m0s", "2m0s"} {
		if v, ok := snap.Value("rai_slo_burn_rate",
			telemetry.L("objective", "avail"), telemetry.L("window", w)); !ok || v < 49.9 || v > 50.1 {
			t.Errorf("burn_rate{window=%s} = %v (ok=%v), want ~50", w, v, ok)
		}
	}
}

// TestScrape: real HTTP round trip; dead endpoints are reported but do
// not blind the round.
func TestScrape(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintln(w, `rai_worker_jobs_total{status="succeeded"} 9`)
		fmt.Fprintln(w, `rai_worker_jobs_total{status="failed"} 1`)
	}))
	defer srv.Close()
	dead := httptest.NewServer(http.NotFoundHandler())
	dead.Close()

	clk := clock.NewVirtual(t0)
	e := NewEngine([]Objective{availObjective(0.99)}, WithClock(clk))
	err := e.Scrape(context.Background(), []string{srv.URL, dead.URL})
	if err == nil || !strings.Contains(err.Error(), dead.URL) {
		t.Fatalf("dead endpoint not reported: %v", err)
	}
	st := e.Evaluate()
	if st[0].Total != 10 || st[0].Bad != 1 {
		t.Fatalf("scraped totals = %+v, want 1/10", st[0])
	}
}

// TestFormatShowsBreach: the human rendering marks breaches and firing
// rules.
func TestFormatShowsBreach(t *testing.T) {
	clk := clock.NewVirtual(t0)
	e := NewEngine([]Objective{availObjective(0.99)}, WithClock(clk))
	e.Observe(snapOf(s("rai_worker_jobs_total", 50, "status", "failed"),
		s("rai_worker_jobs_total", 50, "status", "succeeded")))
	out := Format(e.Evaluate())
	if !strings.Contains(out, "BREACH") || !strings.Contains(out, "FIRING") {
		t.Fatalf("breach not rendered:\n%s", out)
	}
}
