package sim

import (
	"context"
	"strings"
	"testing"
	"time"

	"rai/internal/cnn"
	"rai/internal/core"
	"rai/internal/docstore"
	"rai/internal/project"
	"rai/internal/scaling"
	"rai/internal/shell"
	"rai/internal/workload"
)

// fall2016 is generated once; the generator is deterministic.
var fall2016 = workload.Generate(workload.Fall2016())

func smallCourse() *workload.Course {
	cfg := workload.Fall2016()
	cfg.Teams = 6
	cfg.Students = 18
	cfg.TargetSubmissions = 60
	return workload.Generate(cfg)
}

func TestDeploymentRunsSingleSubmission(t *testing.T) {
	d, err := NewDeployment(DeployConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	c, err := d.NewClient("team-x", nil)
	if err != nil {
		t.Fatal(err)
	}
	sub := workload.Submission{
		Time: d.Clock.Now().Add(time.Hour),
		Team: "team-x",
		Kind: core.KindRun,
		Spec: project.Spec{Impl: cnn.ImplIm2col, Tuning: 1, Team: "team-x"},
	}
	res, err := d.RunSubmission(context.Background(), c, sub)
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != core.StatusSucceeded {
		t.Fatalf("status = %q", res.Status)
	}
	// The virtual clock advanced to the submission time.
	if d.Clock.Now().Before(sub.Time) {
		t.Error("clock did not advance to the arrival time")
	}
}

func TestDeploymentRunsSmallCourse(t *testing.T) {
	if testing.Short() {
		t.Skip("full-stack course replay is not short")
	}
	course := smallCourse()
	d, err := NewDeployment(DeployConfig{Start: course.Cfg.Start, RateLimit: time.Nanosecond})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	results, err := d.RunCourse(context.Background(), course)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != len(course.Submissions) {
		t.Fatalf("results = %d, submissions = %d", len(results), len(course.Submissions))
	}
	succeeded, failed := 0, 0
	for _, r := range results {
		switch r.Result.Status {
		case core.StatusSucceeded:
			succeeded++
		case core.StatusFailed:
			failed++
		}
	}
	if succeeded == 0 {
		t.Fatal("no submission succeeded")
	}
	// Injected compile errors and crashes fail visibly.
	if failed == 0 {
		t.Error("no submission failed despite injected bugs")
	}
	// Every team that submitted a final lands on the leaderboard.
	n, err := d.DB.Count(context.Background(), core.CollRankings, docstore.M{})
	if err != nil {
		t.Fatal(err)
	}
	if n == 0 {
		t.Error("no ranking rows after the course")
	}
	// Uploads accumulated on the file server.
	if d.Store.Used() == 0 {
		t.Error("file server holds no data")
	}
}

func TestQueueSimFullCourse(t *testing.T) {
	replay, err := RunQueueSim(QueueSimConfig{
		Course:           fall2016,
		Policy:           scaling.FixedPolicy{N: 30},
		SlotsPerInstance: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(replay.Jobs) != len(fall2016.Submissions) {
		t.Fatalf("jobs = %d, submissions = %d", len(replay.Jobs), len(fall2016.Submissions))
	}
	// §VII: ~100 GB uploaded, ~25 GB logs/meta-data. Shape tolerance.
	uploadGB := float64(replay.TotalUploadBytes) / (1 << 30)
	logGB := float64(replay.TotalLogBytes) / (1 << 30)
	if uploadGB < 50 || uploadGB > 200 {
		t.Errorf("uploads = %.1f GB, want ≈100", uploadGB)
	}
	if logGB < 10 || logGB > 60 {
		t.Errorf("logs = %.1f GB, want ≈25", logGB)
	}
	// Jobs never start before they arrive, never wait negatively.
	for _, j := range replay.Jobs[:100] {
		if j.Start.Before(j.Arrival) || j.Wait < 0 {
			t.Fatalf("job %v starts before arrival", j)
		}
	}
}

func TestFigure2Shape(t *testing.T) {
	res, err := Figure2(context.Background(), fall2016)
	if err != nil {
		t.Fatal(err)
	}
	if res.Teams != 58 {
		t.Fatalf("ranked teams = %d", res.Teams)
	}
	// Mode bin below 1 s (Figure 2: most teams under a second, peak
	// near 0.4–0.5 s).
	if res.ModeBin.Lo >= 1.0 {
		t.Errorf("mode bin at [%.1f,%.1f), want sub-second", res.ModeBin.Lo, res.ModeBin.Hi)
	}
	if res.Fastest < 0.35 || res.Fastest > 0.7 {
		t.Errorf("fastest = %.3fs, want ≈0.4s", res.Fastest)
	}
	if res.Slowest < 30 {
		t.Errorf("slowest = %.1fs, want a minutes-scale tail", res.Slowest)
	}
	total := 0
	for _, b := range res.Bins {
		total += b.Count
	}
	if total != 30 {
		t.Errorf("histogram covers %d teams, want top 30", total)
	}
	if !strings.Contains(res.Text, "Figure 2") {
		t.Error("missing text rendering")
	}
}

func TestFigure4Shape(t *testing.T) {
	res := Figure4(fall2016)
	// Paper: 30,782 submissions in the last two weeks.
	if res.Total < 27_000 || res.Total > 35_000 {
		t.Errorf("last-two-weeks total = %d, want ≈30,782", res.Total)
	}
	// Circadian rhythm: strong afternoon-vs-predawn contrast.
	if res.CircadianContrast < 3 {
		t.Errorf("circadian contrast = %.1f, want pronounced", res.CircadianContrast)
	}
	// Activity ramps toward the deadline: second week busier than first.
	half := len(res.Series.Counts) / 2
	first, second := 0, 0
	for i, c := range res.Series.Counts {
		if i < half {
			first += c
		} else {
			second += c
		}
	}
	if second <= first {
		t.Errorf("no ramp: first week %d, second week %d", first, second)
	}
	if !strings.Contains(res.Text, "Figure 4") {
		t.Error("missing text rendering")
	}
}

func TestStatsMatchesPaperScale(t *testing.T) {
	s, err := Stats(fall2016)
	if err != nil {
		t.Fatal(err)
	}
	if s.Students != 176 || s.Teams != 58 {
		t.Errorf("students/teams = %d/%d", s.Students, s.Teams)
	}
	if s.TotalSubmissions < 38_000 {
		t.Errorf("total submissions = %d, want >40k scale", s.TotalSubmissions)
	}
	for _, want := range []string{"176", "58", "30,782", "100 GB"} {
		if !strings.Contains(s.Text, want) {
			t.Errorf("stats table missing %q:\n%s", want, s.Text)
		}
	}
}

func TestBaselineFixedVsElastic(t *testing.T) {
	from := fall2016.Cfg.Deadline.Add(-14 * 24 * time.Hour)
	to := fall2016.Cfg.Deadline.Add(time.Hour)
	outcomes, text, err := ComparePolicies(fall2016, from, to, []scaling.Policy{
		scaling.FixedPolicy{N: 4},
		scaling.FixedPolicy{N: 30},
		scaling.ElasticPolicy{Min: 4, Max: 30, SlotsPerInstance: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	fixed4, fixed30, elastic := outcomes[0], outcomes[1], outcomes[2]
	// §III: the small fixed cluster oversubscribes during the deadline
	// burst — queue delays reach the hours the paper warns about.
	if fixed4.WaitP95 < 15*time.Minute {
		t.Errorf("fixed-4 p95 wait = %v; expected severe queueing", fixed4.WaitP95)
	}
	// A generous always-on fleet never queues...
	if fixed30.WaitP95 > time.Minute {
		t.Errorf("fixed-30 p95 wait = %v, want ≈0", fixed30.WaitP95)
	}
	// ...but elastic approaches its latency at a fraction of the price.
	if elastic.WaitP95 > 5*time.Minute {
		t.Errorf("elastic p95 wait = %v, want interactive", elastic.WaitP95)
	}
	if elastic.CostUSD >= fixed30.CostUSD/2 {
		t.Errorf("elastic cost $%.0f not well below fixed-30 $%.0f", elastic.CostUSD, fixed30.CostUSD)
	}
	// Elastic scaled up during the burst.
	if elastic.Peak <= 4 {
		t.Errorf("elastic never scaled beyond its floor (peak %d)", elastic.Peak)
	}
	if !strings.Contains(text, "fixed-4") || !strings.Contains(text, "elastic-4..30") {
		t.Errorf("comparison table:\n%s", text)
	}
}

func TestResourceUsagePhases(t *testing.T) {
	outcomes, text, err := ResourceUsagePhases(fall2016)
	if err != nil {
		t.Fatal(err)
	}
	if len(outcomes) != 3 {
		t.Fatalf("phases = %d", len(outcomes))
	}
	// The benchmarking phase carries the bulk of the jobs (deadline
	// burst) on single-job workers.
	if outcomes[2].Jobs < outcomes[0].Jobs || outcomes[2].Jobs < outcomes[1].Jobs {
		t.Errorf("benchmarking phase jobs = %d, want the largest (%d, %d)", outcomes[2].Jobs, outcomes[0].Jobs, outcomes[1].Jobs)
	}
	if outcomes[0].Type != "g2.2xlarge" || outcomes[2].Type != "p2.xlarge" {
		t.Errorf("instance transition missing: %+v", outcomes)
	}
	if !strings.Contains(text, "benchmarking") {
		t.Errorf("phase table:\n%s", text)
	}
}

// TestFiguresDeterministic: the reproduction's outputs are
// bit-reproducible for a fixed seed — the property raisim relies on.
func TestFiguresDeterministic(t *testing.T) {
	courseA := workload.Generate(workload.Fall2016())
	courseB := workload.Generate(workload.Fall2016())
	f2a, err := Figure2(context.Background(), courseA)
	if err != nil {
		t.Fatal(err)
	}
	f2b, err := Figure2(context.Background(), courseB)
	if err != nil {
		t.Fatal(err)
	}
	if f2a.Text != f2b.Text {
		t.Error("Figure 2 text differs across identical seeds")
	}
	if Figure4(courseA).Text != Figure4(courseB).Text {
		t.Error("Figure 4 text differs across identical seeds")
	}
	sa, err := Stats(courseA)
	if err != nil {
		t.Fatal(err)
	}
	sb, err := Stats(courseB)
	if err != nil {
		t.Fatal(err)
	}
	if sa.Text != sb.Text {
		t.Error("stats text differs across identical seeds")
	}
}

func TestTable1MatchesPaper(t *testing.T) {
	rows := Table1()
	if len(rows) != 6 {
		t.Fatalf("rows = %d", len(rows))
	}
	byName := map[string]SystemFeatures{}
	for _, r := range rows {
		byName[r.System] = r
	}
	rai := byName["RAI"]
	if !(rai.Configurability && rai.Isolation && rai.Scalability && rai.Accessibility && rai.Uniformity) {
		t.Errorf("RAI row = %+v, want all features", rai)
	}
	if byName["WebGPU"].Configurability {
		t.Error("WebGPU marked configurable; paper says otherwise")
	}
	if byName["Jenkins"].Accessibility {
		t.Error("Jenkins marked accessible; paper says otherwise")
	}
	if byName["Torque/PBS"].Uniformity {
		t.Error("Torque/PBS marked uniform; paper says otherwise")
	}
	text := FormatTable1()
	if !strings.Contains(text, "RAI") || !strings.Contains(text, "Testing Uniformity") {
		t.Errorf("table text:\n%s", text)
	}
}

// TestFastPathMatchesFullStack cross-validates the two layers: the same
// submission produces the same modeled runtime through the event-level
// simulator and through the real container execution.
func TestFastPathMatchesFullStack(t *testing.T) {
	course := smallCourse()
	// Pick a final submission.
	var sub workload.Submission
	for _, s := range course.Submissions {
		if s.Kind == "submit" {
			sub = s
			break
		}
	}
	if sub.Team == "" {
		t.Fatal("no final submission in small course")
	}
	// Full stack.
	d, err := NewDeployment(DeployConfig{Start: course.Cfg.Start, RateLimit: time.Nanosecond})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	c, err := d.NewClient(sub.Team, nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := d.RunSubmission(context.Background(), c, sub)
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != core.StatusSucceeded {
		t.Fatalf("full-stack status = %q", res.Status)
	}
	// Fast path: the event-level simulator's modeled internal timer.
	fast := simulateJob(sub, QueueSimConfig{
		Course: course, Cost: shell.DefaultCostModel(), TransferBytesPerSec: 20 << 20,
	}, 0.9)
	// The internal timers must agree exactly: both sides call the same
	// cost model with the same (impl, 10000, tuning).
	if fast.RuntimeS != res.InternalTimer.Seconds() {
		t.Errorf("fast path runtime %.4fs != full stack %.4fs", fast.RuntimeS, res.InternalTimer.Seconds())
	}
}
