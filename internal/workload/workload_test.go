package workload

import (
	"testing"
	"time"

	"rai/internal/cnn"
	"rai/internal/shell"
)

func genFall2016(t *testing.T) *Course {
	t.Helper()
	return Generate(Fall2016())
}

func TestDeterministicFromSeed(t *testing.T) {
	a, b := Generate(Fall2016()), Generate(Fall2016())
	if len(a.Submissions) != len(b.Submissions) {
		t.Fatalf("counts differ: %d vs %d", len(a.Submissions), len(b.Submissions))
	}
	for i := range a.Submissions {
		if !a.Submissions[i].Time.Equal(b.Submissions[i].Time) || a.Submissions[i].Team != b.Submissions[i].Team {
			t.Fatalf("submission %d differs", i)
		}
	}
	cfg := Fall2016()
	cfg.Seed = 999
	c := Generate(cfg)
	if len(c.Submissions) == len(a.Submissions) && c.Submissions[0].Time.Equal(a.Submissions[0].Time) {
		t.Error("different seed produced an identical course")
	}
}

func TestTeamCountAndSizes(t *testing.T) {
	c := genFall2016(t)
	if len(c.Teams) != 58 {
		t.Fatalf("teams = %d", len(c.Teams))
	}
	members := 0
	for _, tm := range c.Teams {
		if tm.Members < 2 || tm.Members > 4 {
			t.Fatalf("team size %d outside 2-4 (paper §I)", tm.Members)
		}
		members += tm.Members
	}
	// 58 teams of 2-4 should land near the 176 enrolled students.
	if members < 120 || members > 230 {
		t.Errorf("total members = %d, implausible for 176 students", members)
	}
}

func TestTotalSubmissionVolume(t *testing.T) {
	c := genFall2016(t)
	total := len(c.Submissions)
	// Paper: "over 40,000 project submissions". Poisson noise allows a
	// few percent slack around the 41k target.
	if total < 38_000 || total > 45_000 {
		t.Fatalf("total submissions = %d, want ≈41k", total)
	}
	last2 := len(c.LastTwoWeeks())
	// Paper Figure 4: 30,782 submissions in the last two weeks (~75%).
	share := float64(last2) / float64(total)
	if share < 0.68 || share < 0.5 || share > 0.85 {
		t.Fatalf("last-two-weeks share = %.2f (%d), want ≈0.75", share, last2)
	}
}

func TestSubmissionsSortedAndInWindow(t *testing.T) {
	c := genFall2016(t)
	for i := 1; i < len(c.Submissions); i++ {
		if c.Submissions[i].Time.Before(c.Submissions[i-1].Time) {
			t.Fatalf("submissions not sorted at %d", i)
		}
	}
	for _, s := range c.Submissions {
		if s.Time.Before(c.Cfg.Start) || s.Time.After(c.Cfg.Deadline) {
			t.Fatalf("submission at %v outside course window", s.Time)
		}
	}
}

func TestCircadianShape(t *testing.T) {
	c := genFall2016(t)
	var byHour [24]int
	for _, s := range c.Submissions {
		byHour[s.Time.Hour()]++
	}
	// Pre-dawn trough far below the afternoon peak.
	trough := byHour[3] + byHour[4] + byHour[5]
	peak := byHour[14] + byHour[15] + byHour[16]
	if peak < 5*trough {
		t.Errorf("circadian contrast too weak: peak=%d trough=%d", peak, trough)
	}
}

func TestDeadlineRamp(t *testing.T) {
	c := genFall2016(t)
	mid := c.Cfg.Start.Add(c.Cfg.Deadline.Sub(c.Cfg.Start) / 2)
	first, second := 0, 0
	for _, s := range c.Submissions {
		if s.Time.Before(mid) {
			first++
		} else {
			second++
		}
	}
	if second < 3*first {
		t.Errorf("no deadline burst: first half %d, second half %d", first, second)
	}
}

func TestEveryTeamMakesAFinalSubmission(t *testing.T) {
	c := genFall2016(t)
	finals := map[string]int{}
	for _, s := range c.Submissions {
		if s.Kind == "submit" {
			finals[s.Team]++
			if !s.Spec.WithUsage || !s.Spec.WithReport {
				t.Fatalf("final submission for %s lacks USAGE/report.pdf", s.Team)
			}
		}
	}
	if len(finals) != 58 {
		t.Fatalf("teams with finals = %d", len(finals))
	}
	for team, n := range finals {
		if n < 1 || n > 3 {
			t.Errorf("team %s made %d final submissions", team, n)
		}
	}
}

func TestFinalRuntimeDistributionMatchesFigure2(t *testing.T) {
	c := genFall2016(t)
	cost := shell.DefaultCostModel()
	var runtimes []float64
	for _, tm := range c.Teams {
		rt := cost.Inference(tm.FinalImpl, 10_000, tm.FinalTuning).Seconds()
		runtimes = append(runtimes, rt)
	}
	// Sort ascending; inspect the top 30 (Figure 2 plots the top 30).
	for i := 1; i < len(runtimes); i++ {
		for j := i; j > 0 && runtimes[j] < runtimes[j-1]; j-- {
			runtimes[j], runtimes[j-1] = runtimes[j-1], runtimes[j]
		}
	}
	top30 := runtimes[:30]
	sub1s := 0
	bin0405 := 0
	for _, rt := range top30 {
		if rt < 1.0 {
			sub1s++
		}
		if rt >= 0.4 && rt < 0.5 {
			bin0405++
		}
	}
	// "Most teams fell within the 1 second runtime."
	if sub1s < 15 {
		t.Errorf("top-30 under 1s = %d, want most", sub1s)
	}
	// Figure 2's example: ~5 teams in the [0.4,0.5) bin.
	if bin0405 < 2 || bin0405 > 12 {
		t.Errorf("teams in [0.4,0.5) = %d, want a clear mode (~5)", bin0405)
	}
	// "The slowest submission took 2 minutes to complete."
	slowest := runtimes[len(runtimes)-1]
	if slowest < 30 || slowest > 400 {
		t.Errorf("slowest final runtime = %.1fs, want minutes-scale tail", slowest)
	}
	// Fastest cannot beat the best kernel's physical floor (~0.4 s).
	if top30[0] < 0.38 {
		t.Errorf("fastest = %.3fs, below the model's floor", top30[0])
	}
}

func TestImplProgressionMonotonic(t *testing.T) {
	c := genFall2016(t)
	team := c.Teams[40] // a strong team
	prev := cnn.ImplNaiveSerial
	for p := 0.0; p <= 1.0; p += 0.05 {
		cur := implAt(team, p)
		if cur < prev {
			t.Fatalf("impl regressed from %v to %v at progress %.2f", prev, cur, p)
		}
		prev = cur
	}
	if implAt(team, 1.0) > team.FinalImpl {
		t.Error("progression exceeded final impl")
	}
}

func TestBugInjectionRates(t *testing.T) {
	c := genFall2016(t)
	compile, crash := 0, 0
	runs := 0
	for _, s := range c.Submissions {
		if s.Kind != "run" {
			continue
		}
		runs++
		switch s.Spec.Bug {
		case "compile":
			compile++
		case "crash":
			crash++
		}
	}
	compileRate := float64(compile) / float64(runs)
	crashRate := float64(crash) / float64(runs)
	if compileRate < 0.04 || compileRate > 0.12 {
		t.Errorf("compile error rate = %.3f", compileRate)
	}
	if crashRate < 0.01 || crashRate > 0.06 {
		t.Errorf("crash rate = %.3f", crashRate)
	}
}

func TestSmallCourseGenerates(t *testing.T) {
	cfg := Config{
		Seed: 7, Teams: 4, Students: 12,
		Start:             time.Date(2016, 11, 11, 0, 0, 0, 0, time.UTC),
		Deadline:          time.Date(2016, 12, 16, 0, 0, 0, 0, time.UTC),
		TargetSubmissions: 400,
	}
	c := Generate(cfg)
	if len(c.Teams) != 4 {
		t.Fatalf("teams = %d", len(c.Teams))
	}
	if len(c.Submissions) < 200 || len(c.Submissions) > 700 {
		t.Fatalf("submissions = %d, want ≈400", len(c.Submissions))
	}
}
