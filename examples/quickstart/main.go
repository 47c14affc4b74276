// Quickstart: submit one job through an in-process RAI deployment.
//
// This is the smallest end-to-end use of the reproduction: stand up the
// Figure 1 architecture (broker, file server, database, one worker),
// issue credentials, submit a project, and watch the build output stream
// back — exactly what a student sees when they type `rai run`.
//
//	go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"
	"os"
	"time"

	"rai/internal/cnn"
	"rai/internal/core"
	"rai/internal/project"
	"rai/internal/sim"
	"rai/internal/workload"
)

func main() {
	ctx := context.Background()
	// One worker, single-job mode, default 30s rate limit.
	deployment, err := sim.NewDeployment(sim.DeployConfig{Workers: 1})
	if err != nil {
		log.Fatal(err)
	}
	defer deployment.Close()

	// The teaching staff issues credentials; the client streams job
	// output to our terminal.
	client, err := deployment.NewClient("quickstart-team", os.Stdout)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("== submitting a development job (rai run) ==")
	res, err := deployment.RunSubmission(ctx, client, workload.Submission{
		Time: deployment.Clock.Now().Add(time.Minute),
		Team: "quickstart-team",
		Kind: core.KindRun,
		Spec: project.Spec{
			Impl:   cnn.ImplIm2col, // the team has reached the im2col kernel
			Tuning: 1.1,
			Team:   "quickstart-team",
		},
	})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("\njob %s finished: %s\n", res.JobID, res.Status)
	fmt.Printf("verification accuracy: %.4f\n", res.Accuracy)
	fmt.Printf("internal timer:        %.4fs (test10 dataset)\n", res.InternalTimer.Seconds())
	fmt.Printf("build archive:         %s/%s\n", res.BuildBucket, res.BuildKey)

	// The /build directory (with the nvprof timeline) is downloadable.
	blob, err := client.DownloadBuild(ctx, res)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("downloaded /build archive: %d bytes\n", len(blob))
}
