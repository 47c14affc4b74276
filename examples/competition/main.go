// Competition: run a small class's final submissions and show the
// ranking the way the course did (paper §VI) — students see their own
// team named and everyone else anonymized; the instructor sees real
// names and the Figure 2 runtime histogram.
//
//	go run ./examples/competition
package main

import (
	"context"
	"fmt"
	"io"
	"log"
	"time"

	"rai/internal/cnn"
	"rai/internal/core"
	"rai/internal/project"
	"rai/internal/ranking"
	"rai/internal/sim"
	"rai/internal/workload"
)

func main() {
	ctx := context.Background()
	deployment, err := sim.NewDeployment(sim.DeployConfig{RateLimit: time.Nanosecond})
	if err != nil {
		log.Fatal(err)
	}
	defer deployment.Close()

	// Six teams at different optimization levels make final submissions.
	teams := []project.Spec{
		{Team: "bitfusion", Impl: cnn.ImplParallel, Tuning: 1.02},
		{Team: "gpugeeks", Impl: cnn.ImplParallel, Tuning: 1.21},
		{Team: "warpspeed", Impl: cnn.ImplIm2col, Tuning: 1.15},
		{Team: "tilewizards", Impl: cnn.ImplTiled, Tuning: 1.4},
		{Team: "latelearners", Impl: cnn.ImplLoopReorder, Tuning: 2.2},
		{Team: "segfault", Impl: cnn.ImplLoopReorder, Tuning: 19},
	}
	at := deployment.Clock.Now()
	for _, spec := range teams {
		spec.WithUsage, spec.WithReport = true, true
		client, err := deployment.NewClient(spec.Team, io.Discard)
		if err != nil {
			log.Fatal(err)
		}
		at = at.Add(time.Minute)
		res, err := deployment.RunSubmission(ctx, client, workload.Submission{
			Time: at, Team: spec.Team, Kind: core.KindSubmit, Spec: spec,
		})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-14s final submission: %-9s runtime %8.3fs\n",
			spec.Team, res.Status, res.InternalTimer.Seconds())
	}

	lb := &ranking.Leaderboard{DB: deployment.DB}

	fmt.Println("\n== what team warpspeed sees (rai ranking) ==")
	entries, err := lb.View(ctx, "warpspeed")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(ranking.Format(entries))

	fmt.Println("\n== instructor view ==")
	entries, err = lb.View(ctx, "")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(ranking.Format(entries))

	fmt.Println("\n== Figure 2 style histogram (0.1s bins) ==")
	bins, err := lb.Histogram(ctx, 30, 0.1)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(ranking.FormatHistogram(bins))

	// A second, faster submission overwrites the team's record (§V).
	fmt.Println("\n== segfault resubmits an improved kernel ==")
	client, _ := deployment.NewClient("segfault", io.Discard)
	res, err := deployment.RunSubmission(ctx, client, workload.Submission{
		Time: at.Add(time.Hour), Team: "segfault", Kind: core.KindSubmit,
		Spec: project.Spec{Team: "segfault", Impl: cnn.ImplTiled, Tuning: 1.6, WithUsage: true, WithReport: true},
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("new runtime %.3fs\n", res.InternalTimer.Seconds())
	rank, total, err := lb.RankOf(ctx, "segfault")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("segfault is now ranked %d of %d\n", rank, total)

}
