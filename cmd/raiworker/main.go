// Command raiworker runs a RAI worker agent (paper §IV "RAI Worker"): it
// subscribes to the rai/tasks queue route, executes accepted jobs inside
// sandboxed containers with the paper's limits (no network, 8 GB memory,
// 1 h lifetime, 30 s per-user rate limit — all configurable), streams
// output to the job's log topic, and uploads /build to the file server.
//
// Usage:
//
//	raiworker -broker host:port -fs url -db url -keys keys.json
//	          [-id worker-1] [-concurrency 1] [-mem bytes]
//	          [-lifetime 1h] [-rate-limit 30s] [-allow-sessions]
//	          [-session-idle 10m] [-seed 408] [-full-images 100]
//	          [-metrics-addr host:port] [-pprof]
//	          [-ready-file path] [-version]
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"rai/internal/auth"
	"rai/internal/cnn"
	"rai/internal/core"
	"rai/internal/daemon"
	"rai/internal/docstore"
	"rai/internal/netx"
	"rai/internal/objstore"
	"rai/internal/registry"
	"rai/internal/telemetry"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr, daemon.Hooks{}))
}

func run(args []string, stdout, stderr io.Writer, hooks daemon.Hooks) int {
	fs := flag.NewFlagSet("raiworker", flag.ContinueOnError)
	fs.SetOutput(stderr)
	brokerAddr := fs.String("broker", "127.0.0.1:7400", "broker address")
	fsURL := fs.String("fs", "http://127.0.0.1:7401", "file server URL")
	dbURL := fs.String("db", "http://127.0.0.1:7402", "database URL")
	keysPath := fs.String("keys", "", "credentials file (from raiadmin keygen)")
	id := fs.String("id", "worker-1", "worker id recorded in job documents")
	concurrency := fs.Int("concurrency", 1, "jobs accepted at once (single-job mode = 1)")
	mem := fs.Int64("mem", 8<<30, "container memory limit in bytes")
	lifetime := fs.Duration("lifetime", time.Hour, "container lifetime limit")
	rateLimit := fs.Duration("rate-limit", 30*time.Second, "per-user submission spacing")
	allowSessions := fs.Bool("allow-sessions", false, "accept interactive sessions (§VIII future work)")
	sessionIdle := fs.Duration("session-idle", 10*time.Minute, "idle timeout for interactive sessions")
	seed := fs.Uint64("seed", 408, "course model/dataset seed")
	fullImages := fs.Int("full-images", 100, "images stored in testfull.hdf5")
	metricsAddr := fs.String("metrics-addr", "", "serve GET /metrics on this address (empty = disabled)")
	pprofOn := fs.Bool("pprof", false, "mount /debug/pprof on the metrics address")
	readyPath := fs.String("ready-file", "", "write a JSON readiness document (pid, metrics address) here once accepting jobs")
	showVersion := fs.Bool("version", false, "print build information and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *showVersion {
		fmt.Fprintln(stdout, telemetry.NewStamp("raiworker"))
		return 0
	}
	if *keysPath == "" {
		fmt.Fprintln(stderr, "raiworker: -keys is required (run raiadmin keygen first)")
		return 2
	}
	reg, err := auth.ReadKeys(*keysPath)
	if err != nil {
		fmt.Fprintf(stderr, "raiworker: %v\n", err)
		return 1
	}
	// The daemon comes first so the RPC layer's retry/reconnect counters
	// land in the registry the worker exports.
	d, err := daemon.Start(context.Background(), daemon.Config{Service: "raiworker", MetricsAddr: *metricsAddr,
		Pprof: *pprofOn, ReadyFile: *readyPath, Stdout: stdout, Stderr: stderr, Hooks: hooks})
	if err != nil {
		fmt.Fprintf(stderr, "raiworker: %v\n", err)
		return 1
	}
	defer d.Close()
	queuePolicy := netx.Policy{Metrics: netx.NewMetrics(d.Registry, "broker")}
	fsPolicy := netx.Policy{Metrics: netx.NewMetrics(d.Registry, "objstore")}
	dbPolicy := netx.Policy{Metrics: netx.NewMetrics(d.Registry, "docstore")}
	queue, err := d.Dial(*brokerAddr, queuePolicy)
	if err != nil {
		fmt.Fprintf(stderr, "raiworker: connecting to broker: %v\n", err)
		return 1
	}
	// Spans and log events ship to the collector over the same broker
	// connection the worker already holds; the exporter never blocks job
	// execution (full queue = dropped record + counter).
	d.Ship(queue)

	dataFS, err := cnn.DataVolume(*seed, *fullImages)
	if err != nil {
		fmt.Fprintf(stderr, "raiworker: building data volume: %v\n", err)
		return 1
	}
	w := &core.Worker{
		Cfg: core.WorkerConfig{
			ID:                 *id,
			MaxConcurrent:      *concurrency,
			MemoryBytes:        *mem,
			Lifetime:           *lifetime,
			RateLimit:          *rateLimit,
			AllowSessions:      *allowSessions,
			SessionIdleTimeout: *sessionIdle,
		},
		Queue:     queue,
		Objects:   objstore.NewClient(*fsURL, objstore.WithClientPolicy(fsPolicy)),
		DB:        docstore.NewClient(*dbURL, docstore.WithClientPolicy(dbPolicy)),
		Auth:      reg,
		Images:    registry.NewCourseRegistry(),
		DataFS:    dataFS,
		DataPath:  "/data",
		Telemetry: d.Registry,
		Tracer:    d.Tracer,
		Log:       d.Log,
	}
	fmt.Fprintf(stdout, "raiworker %s accepting jobs (concurrency %d)\n", *id, *concurrency)
	if err := d.Ready(""); err != nil {
		fmt.Fprintf(stderr, "raiworker: %v\n", err)
		return 1
	}
	// Graceful shutdown: the daemon's context ends at the signal, which
	// closes the subscription (the broker requeues undelivered jobs for
	// other workers) while jobs already executing drain to completion
	// inside Run, with no budget.
	done := make(chan error, 1)
	go func() { done <- w.Run(d.Context()) }()
	var runErr error
	select {
	case <-d.Context().Done():
		fmt.Fprintf(stdout, "raiworker %s draining in-flight jobs\n", *id)
		runErr = <-done
	case runErr = <-done:
	}
	if runErr != nil && d.Context().Err() == nil {
		fmt.Fprintf(stderr, "raiworker: %v\n", runErr)
		return 1
	}
	fmt.Fprintf(stdout, "raiworker %s handled %d jobs\n", *id, w.Handled())
	return 0
}
