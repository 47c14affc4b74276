// Interactive: the paper's §VIII future work, implemented — an
// interactive session where the container stays alive between commands,
// so students can iterate with the compiler, profiler, and debugger the
// way they would on a machine of their own, while every §V limit (image
// whitelist, read-only /src, no network, memory and lifetime caps)
// remains enforced.
//
//	go run ./examples/interactive
package main

import (
	"context"
	"fmt"
	"log"
	"os"
	"time"

	"rai/internal/cnn"
	"rai/internal/project"
	"rai/internal/sim"
)

func main() {
	ctx := context.Background()
	deployment, err := sim.NewDeployment(sim.DeployConfig{RateLimit: time.Nanosecond})
	if err != nil {
		log.Fatal(err)
	}
	defer deployment.Close()

	// Instructors opt workers into sessions (§VIII: "allowing
	// instructors to configure interactive sessions").
	worker := deployment.Workers()[0]
	worker.Cfg.AllowSessions = true
	worker.Cfg.SessionIdleTimeout = time.Hour
	go func() { _ = worker.Run(ctx) }()
	defer worker.Stop()

	client, err := deployment.NewClient("debug-team", os.Stdout)
	if err != nil {
		log.Fatal(err)
	}
	client.LogWait = time.Minute

	m, src, err := sim.ProjectManifest(project.Spec{Impl: cnn.ImplIm2col, Tuning: 1, Team: "debug-team"})
	if err != nil {
		log.Fatal(err)
	}
	session, err := client.OpenSession(ctx, m, src)
	if err != nil {
		log.Fatal(err)
	}
	defer session.Close()

	// The debugging loop: configure once, build, run, profile, inspect —
	// state persists across commands because it is one container.
	for _, cmd := range []string{
		"cmake /src",
		"make",
		"./ece408 /data/test10.hdf5 /data/model.hdf5",
		"nvprof --export-profile timeline.nvprof ./ece408 /data/test10.hdf5 /data/model.hdf5",
		"ls /build",
		"cat timeline.nvprof",
	} {
		fmt.Printf("\nrai> %s\n", cmd)
		res, err := session.Run(ctx, cmd)
		if err != nil {
			log.Fatal(err)
		}
		if res.ExitCode != 0 {
			fmt.Printf("(exit %d)\n", res.ExitCode)
		}
	}

	if err := session.Close(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nsession ended: %s; /build archived at %s/%s\n",
		session.Result.Status, session.Result.BuildBucket, session.Result.BuildKey)
}
