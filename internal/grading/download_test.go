package grading

import (
	"context"
	"strings"
	"testing"
	"time"

	"rai/internal/cnn"
	"rai/internal/core"
	"rai/internal/project"
	"rai/internal/sim"
	"rai/internal/vfs"
	"rai/internal/workload"
)

// deployWithFinals runs two teams' final submissions through a full
// in-process deployment.
func deployWithFinals(t *testing.T) *sim.Deployment {
	t.Helper()
	d, err := sim.NewDeployment(sim.DeployConfig{RateLimit: time.Nanosecond})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(d.Close)
	at := d.Clock.Now()
	for i, spec := range []project.Spec{
		{Impl: cnn.ImplParallel, Tuning: 1.0, Team: "team-fast", WithUsage: true, WithReport: true},
		{Impl: cnn.ImplTiled, Tuning: 1.3, Team: "team-slow", WithUsage: true, WithReport: true},
	} {
		c, err := d.NewClient(spec.Team, nil)
		if err != nil {
			t.Fatal(err)
		}
		at = at.Add(time.Duration(i+1) * time.Minute)
		res, err := d.RunSubmission(context.Background(), c, workload.Submission{
			Time: at, Team: spec.Team, Kind: core.KindSubmit, Spec: spec,
		})
		if err != nil || res.Status != core.StatusSucceeded {
			t.Fatalf("final submission for %s: %v %+v", spec.Team, err, res)
		}
	}
	return d
}

func TestDownloadAllFinalSubmissions(t *testing.T) {
	d := deployWithFinals(t)
	dl := &Downloader{DB: d.DB, Objects: d.Objects}
	subs, err := dl.ListFinalSubmissions(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(subs) != 2 {
		t.Fatalf("final submissions = %+v", subs)
	}
	dst := vfs.New()
	teams, err := dl.DownloadAll(context.Background(), dst, "/graded")
	if err != nil {
		t.Fatal(err)
	}
	if len(teams) != 2 || teams[0] != "team-fast" {
		t.Fatalf("teams = %v", teams)
	}
	// The unpacked tree contains the copied source (Listing 2 line 7).
	if !dst.Exists("/graded/team-fast/submission_code/CMakeLists.txt") {
		t.Error("submission code missing")
	}
	// Without cleanup the build intermediates remain.
	if !dst.Exists("/graded/team-fast/Makefile") {
		t.Error("Makefile missing without cleanup")
	}
}

func TestDownloadAllWithCleanup(t *testing.T) {
	d := deployWithFinals(t)
	dl := &Downloader{DB: d.DB, Objects: d.Objects, Cleanup: true}
	dst := vfs.New()
	if _, err := dl.DownloadAll(context.Background(), dst, "/graded"); err != nil {
		t.Fatal(err)
	}
	// Intermediates removed; the submission code retained.
	for _, gone := range []string{"/graded/team-fast/Makefile", "/graded/team-fast/ece408"} {
		if dst.Exists(gone) {
			t.Errorf("%s survived cleanup", gone)
		}
	}
	if !dst.Exists("/graded/team-fast/submission_code/ece408_src/new-forward.cuh") {
		t.Error("cleanup removed student source")
	}
}

func TestRerunThroughDeployment(t *testing.T) {
	// End-to-end §VI "rerun the students' submissions multiple times":
	// RerunFunc drives real resubmissions and the min is recorded.
	d := deployWithFinals(t)
	runCount := 0
	rerun := func(team string) (time.Duration, float64, error) {
		runCount++
		c, err := d.NewClient(team, nil)
		if err != nil {
			return 0, 0, err
		}
		d.Clock.Advance(time.Minute) // clear the rate limit between reruns
		res, err := d.RunSubmission(context.Background(), c, workload.Submission{
			Time: d.Clock.Now(), Team: team, Kind: core.KindSubmit,
			Spec: project.Spec{Impl: cnn.ImplParallel, Tuning: 1.0, Team: team, WithUsage: true, WithReport: true},
		})
		if err != nil {
			return 0, 0, err
		}
		return res.InternalTimer, res.Accuracy, nil
	}
	res, err := RerunMin("team-fast", 3, rerun)
	if err != nil {
		t.Fatal(err)
	}
	if runCount != 3 || len(res.Runs) != 3 {
		t.Fatalf("reruns = %d/%d", runCount, len(res.Runs))
	}
	if res.Best <= 0 || res.Accuracy != 1.0 {
		t.Fatalf("best = %v acc = %v", res.Best, res.Accuracy)
	}
	report := FormatReport(Grade{Team: "team-fast", BestRuntime: res.Best, Accuracy: res.Accuracy, Rank: 1})
	if !strings.Contains(report, "team-fast") {
		t.Error("report rendering")
	}
}
