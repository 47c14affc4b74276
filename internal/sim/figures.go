package sim

import (
	"context"
	"fmt"
	"strings"
	"time"

	"rai/internal/docstore"
	"rai/internal/ranking"
	"rai/internal/scaling"
	"rai/internal/stats"
	"rai/internal/workload"
)

// ---- Table I ----

// SystemFeatures is one row of the paper's Table I.
type SystemFeatures struct {
	System          string
	Configurability bool
	Isolation       bool
	Scalability     bool
	Accessibility   bool
	Uniformity      bool
}

// Table1 returns the feature comparison exactly as the paper presents
// it. The RAI row's properties are the ones this repository demonstrates
// by construction: configurability (whitelisted images + rai-build.yml),
// isolation (sandbox limits), scalability (elastic workers), accessibility
// (cross-platform client), and testing uniformity (enforced Listing 2).
func Table1() []SystemFeatures {
	return []SystemFeatures{
		{"Student-Provided", true, true, true, false, false},
		{"Torque/PBS", true, true, true, true, false},
		{"WebGPU", false, true, true, true, true},
		{"Jenkins", true, true, true, false, true},
		{"QwikLabs", false, true, true, true, false},
		{"RAI", true, true, true, true, true},
	}
}

// FormatTable1 renders Table I as text.
func FormatTable1() string {
	t := &stats.Table{Header: []string{"System", "Configurability", "Isolation", "Scalability", "Accessibility", "Testing Uniformity"}}
	mark := func(b bool) string {
		if b {
			return "yes"
		}
		return "no"
	}
	for _, r := range Table1() {
		t.AddRow(r.System, mark(r.Configurability), mark(r.Isolation), mark(r.Scalability), mark(r.Accessibility), mark(r.Uniformity))
	}
	return t.String()
}

// ---- Figure 2 ----

// Figure2Result carries the final-runtime histogram.
type Figure2Result struct {
	Bins    []ranking.HistogramBin
	Teams   int
	Fastest float64
	Slowest float64
	// ModeBin is the [Lo,Hi) of the most populated bin.
	ModeBin ranking.HistogramBin
	Text    string
}

// Figure2 replays every final submission (overwrite semantics: the last
// one per team counts) and bins the top-30 runtimes into 0.1 s quanta.
func Figure2(ctx context.Context, course *workload.Course) (*Figure2Result, error) {
	replay, err := RunQueueSim(QueueSimConfig{
		Course:           course,
		Policy:           scaling.FixedPolicy{N: 30},
		SlotsPerInstance: 1,
	})
	if err != nil {
		return nil, err
	}
	// Last successful submit per team wins (the ranking database
	// overwrites existing timing records, §V).
	db := docstore.New()
	for _, j := range replay.Jobs {
		if j.Kind != "submit" || j.Failed {
			continue
		}
		_, _ = db.Upsert(ctx, ranking.Collection, docstore.M{"team": j.Team}, docstore.M{"$set": docstore.M{
			"runtime_s": j.RuntimeS, "accuracy": 1.0,
		}})
	}
	lb := &ranking.Leaderboard{DB: db}
	bins, err := lb.Histogram(ctx, 30, 0.1)
	if err != nil {
		return nil, err
	}
	entries, err := lb.View(ctx, "")
	if err != nil {
		return nil, err
	}
	res := &Figure2Result{Bins: bins, Teams: len(entries)}
	if len(entries) > 0 {
		res.Fastest = entries[0].Runtime.Seconds()
		res.Slowest = entries[len(entries)-1].Runtime.Seconds()
	}
	for _, b := range bins {
		if b.Count > res.ModeBin.Count {
			res.ModeBin = b
		}
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "Figure 2 — distribution of the top 30 team runtimes (0.1 s bins)\n")
	fmt.Fprintf(&sb, "teams ranked: %d; fastest %.3fs; slowest %.1fs\n\n", res.Teams, res.Fastest, res.Slowest)
	sb.WriteString(ranking.FormatHistogram(bins))
	res.Text = sb.String()
	return res, nil
}

// ---- Figure 4 ----

// Figure4Result carries the submissions-per-hour timeline.
type Figure4Result struct {
	Series *stats.TimeSeries
	Total  int
	// PeakHour is the busiest hour's count.
	PeakHour int
	// CircadianContrast is afternoon-peak over pre-dawn-trough activity.
	CircadianContrast float64
	Text              string
}

// Figure4 builds the last-two-weeks hourly submission timeline
// ("a total of 30,782 submissions were made to RAI" in that window).
func Figure4(course *workload.Course) *Figure4Result {
	from := course.Cfg.Deadline.Add(-14 * 24 * time.Hour)
	hours := int(course.Cfg.Deadline.Sub(from)/time.Hour) + 1
	series := stats.NewTimeSeries(from, time.Hour, hours)
	for _, s := range course.LastTwoWeeks() {
		series.Add(s.Time)
	}
	peak, _ := series.Peak()
	prof := series.HourOfDayProfile()
	trough := prof[3] + prof[4] + prof[5]
	peakSum := prof[14] + prof[15] + prof[16]
	contrast := 0.0
	if trough > 0 {
		contrast = float64(peakSum) / float64(trough)
	}
	res := &Figure4Result{
		Series: series, Total: series.Total(), PeakHour: peak,
		CircadianContrast: contrast,
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "Figure 4 — submissions per hour, final two weeks\n")
	fmt.Fprintf(&sb, "total: %d submissions; busiest hour: %d; afternoon/pre-dawn contrast: %.1fx\n\n", res.Total, peak, contrast)
	sb.WriteString(series.FormatDaily())
	res.Text = sb.String()
	return res
}

// ---- §VII aggregate statistics (S1) ----

// CourseStats aggregates the term the way §VII reports it.
type CourseStats struct {
	Students         int
	Teams            int
	TotalSubmissions int
	LastTwoWeeks     int
	UploadGB         float64
	LogGB            float64
	Text             string
}

// Stats runs the full-course replay and totals the §VII quantities.
func Stats(course *workload.Course) (*CourseStats, error) {
	replay, err := RunQueueSim(QueueSimConfig{
		Course:           course,
		Policy:           scaling.FixedPolicy{N: 30},
		SlotsPerInstance: 1,
	})
	if err != nil {
		return nil, err
	}
	s := &CourseStats{
		Students:         course.Cfg.Students,
		Teams:            len(course.Teams),
		TotalSubmissions: len(replay.Jobs),
		LastTwoWeeks:     len(course.LastTwoWeeks()),
		UploadGB:         float64(replay.TotalUploadBytes) / (1 << 30),
		LogGB:            float64(replay.TotalLogBytes) / (1 << 30),
	}
	t := &stats.Table{Header: []string{"Quantity", "Paper", "Reproduced"}}
	t.AddRow("students", "176", fmt.Sprintf("%d", s.Students))
	t.AddRow("teams", "58", fmt.Sprintf("%d", s.Teams))
	t.AddRow("total submissions", ">40,000", fmt.Sprintf("%d", s.TotalSubmissions))
	t.AddRow("final-2-week submissions", "30,782", fmt.Sprintf("%d", s.LastTwoWeeks))
	t.AddRow("uploaded data", "~100 GB", fmt.Sprintf("%.1f GB", s.UploadGB))
	t.AddRow("logs + meta-data", "~25 GB", fmt.Sprintf("%.1f GB", s.LogGB))
	s.Text = "§VII aggregate statistics\n" + t.String()
	return s, nil
}

// ---- provisioning (S2) and baseline (B1) ----

// PolicyOutcome is one provisioning strategy's measured result.
type PolicyOutcome struct {
	Policy  string
	WaitP50 time.Duration
	WaitP95 time.Duration
	WaitMax time.Duration
	CostUSD float64
	Peak    int
}

// ComparePolicies replays the same window under several policies — the
// §III motivation quantified: fixed local clusters oversubscribe during
// the deadline burst, elasticity holds wait down at bounded cost.
func ComparePolicies(course *workload.Course, from, to time.Time, policies []scaling.Policy) ([]PolicyOutcome, string, error) {
	var out []PolicyOutcome
	for _, p := range policies {
		replay, err := RunQueueSim(QueueSimConfig{
			Course: course, From: from, To: to,
			Policy: p, SlotsPerInstance: 1,
		})
		if err != nil {
			return nil, "", err
		}
		out = append(out, PolicyOutcome{
			Policy:  p.Name(),
			WaitP50: replay.Waits.Quantile(0.5),
			WaitP95: replay.Waits.Quantile(0.95),
			WaitMax: replay.Waits.Max(),
			CostUSD: replay.CostUSD,
			Peak:    replay.PeakInstances,
		})
	}
	t := &stats.Table{Header: []string{"Policy", "Wait p50", "Wait p95", "Wait max", "Cost", "Peak workers"}}
	for _, o := range out {
		t.AddRow(o.Policy,
			o.WaitP50.Round(time.Second).String(),
			o.WaitP95.Round(time.Second).String(),
			o.WaitMax.Round(time.Second).String(),
			fmt.Sprintf("$%.0f", o.CostUSD),
			fmt.Sprintf("%d", o.Peak))
	}
	return out, t.String(), nil
}

// PhaseOutcome is one course phase under its historical provisioning
// (§VII "Resource Usage").
type PhaseOutcome struct {
	Phase   string
	Type    string
	Slots   int
	Workers string
	Jobs    int
	WaitP95 time.Duration
	CostUSD float64
}

// ResourceUsagePhases replays the three provisioning eras the paper
// describes: G2 single-job early, P2 multi-job mid-course, and 20–30
// single-job P2 instances in the benchmarking weeks.
func ResourceUsagePhases(course *workload.Course) ([]PhaseOutcome, string, error) {
	start, deadline := course.Cfg.Start, course.Cfg.Deadline
	weeks := func(n float64) time.Time { return start.Add(time.Duration(n * 7 * 24 * float64(time.Hour))) }
	type phase struct {
		name  string
		from  time.Time
		to    time.Time
		typ   scaling.InstanceType
		slots int
		pol   scaling.Policy
	}
	phases := []phase{
		{"weeks 1-2: baseline (G2, single-job)", start, weeks(2), scaling.G2, 1,
			scaling.ElasticPolicy{Min: 2, Max: 6, SlotsPerInstance: 1}},
		{"weeks 3-4: development (P2, multi-job)", weeks(2), weeks(4), scaling.P2, 4,
			scaling.ElasticPolicy{Min: 4, Max: 10, SlotsPerInstance: 4}},
		{"week 5: benchmarking (P2, single-job)", weeks(4), deadline.Add(time.Hour), scaling.P2, 1,
			scaling.ElasticPolicy{Min: 10, Max: 30, SlotsPerInstance: 1}},
	}
	var out []PhaseOutcome
	for _, ph := range phases {
		replay, err := RunQueueSim(QueueSimConfig{
			Course: course, From: ph.from, To: ph.to,
			InstanceType: ph.typ, SlotsPerInstance: ph.slots, Policy: ph.pol,
		})
		if err != nil {
			return nil, "", err
		}
		lo := ph.pol.(scaling.ElasticPolicy).Min
		hi := ph.pol.(scaling.ElasticPolicy).Max
		out = append(out, PhaseOutcome{
			Phase: ph.name, Type: ph.typ.Name, Slots: ph.slots,
			Workers: fmt.Sprintf("%d..%d (peak %d)", lo, hi, replay.PeakInstances),
			Jobs:    len(replay.Jobs),
			WaitP95: replay.Waits.Quantile(0.95),
			CostUSD: replay.CostUSD,
		})
	}
	t := &stats.Table{Header: []string{"Phase", "Instance", "Slots", "Workers", "Jobs", "Wait p95", "Cost"}}
	for _, o := range out {
		t.AddRow(o.Phase, o.Type, fmt.Sprintf("%d", o.Slots), o.Workers,
			fmt.Sprintf("%d", o.Jobs), o.WaitP95.Round(time.Second).String(), fmt.Sprintf("$%.0f", o.CostUSD))
	}
	return out, t.String(), nil
}
