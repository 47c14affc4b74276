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
//	          [-lifetime 1h] [-rate-limit 30s] [-seed 408] [-full-images 100]
//	          [-metrics-addr host:port] [-pprof] [-telemetry=false] [-trace-sample 1]
//	          [-dial-timeout 10s] [-rpc-attempts 4] [-rpc-timeout 0]
//	          [-ready-file path] [-version]
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"rai/internal/auth"
	"rai/internal/brokerd"
	"rai/internal/cnn"
	"rai/internal/core"
	"rai/internal/docstore"
	"rai/internal/netx"
	"rai/internal/objstore"
	"rai/internal/readyfile"
	"rai/internal/registry"
	"rai/internal/telemetry"
	"rai/internal/vfs"
)

// version is stamped by the CI pipeline; kept in lockstep with cmd/rai.
const version = "0.2.0-dev"

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr, nil, nil))
}

func run(args []string, stdout, stderr io.Writer, ready chan<- struct{}, quit <-chan struct{}) int {
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
	telemetryOn := fs.Bool("telemetry", true, "ship spans and log events to the collector over the broker")
	traceSample := fs.Float64("trace-sample", 1, "head-sampling fallback rate for traces arriving without a verdict; the job envelope's verdict always wins")
	dialTimeout := fs.Duration("dial-timeout", brokerd.DefaultDialTimeout, "broker dial timeout per attempt")
	rpcAttempts := fs.Int("rpc-attempts", netx.DefaultMaxAttempts, "attempts per RPC before giving up")
	rpcTimeout := fs.Duration("rpc-timeout", 0, "per-attempt RPC deadline (0 = each service's default)")
	readyPath := fs.String("ready-file", "", "write a JSON readiness document (pid, metrics address) here once accepting jobs")
	showVersion := fs.Bool("version", false, "print build information and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *showVersion {
		fmt.Fprintln(stdout, telemetry.NewStamp("raiworker", version))
		return 0
	}
	if *keysPath == "" {
		fmt.Fprintln(stderr, "raiworker: -keys is required (run raiadmin keygen first)")
		return 2
	}
	reg, err := loadKeys(*keysPath)
	if err != nil {
		fmt.Fprintf(stderr, "raiworker: %v\n", err)
		return 1
	}
	// Telemetry comes first so the RPC layer's retry/reconnect counters
	// land in the same registry the worker exports.
	var telReg *telemetry.Registry
	if *metricsAddr != "" {
		telReg = telemetry.NewRegistry()
	}
	policy := netx.Policy{MaxAttempts: *rpcAttempts, PerAttempt: *rpcTimeout}
	queuePolicy := policy
	queuePolicy.Metrics = netx.NewMetrics(telReg, "broker")
	fsPolicy := policy
	fsPolicy.Metrics = netx.NewMetrics(telReg, "objstore")
	dbPolicy := policy
	dbPolicy.Metrics = netx.NewMetrics(telReg, "docstore")
	queue, err := brokerd.NewQueue(context.Background(), *brokerAddr, queuePolicy, *dialTimeout)
	if err != nil {
		fmt.Fprintf(stderr, "raiworker: connecting to broker: %v\n", err)
		return 1
	}
	defer queue.Close()

	dataFS, err := buildDataVolume(*seed, *fullImages)
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
		Queue:    queue,
		Objects:  objstore.NewClient(*fsURL, objstore.WithClientPolicy(fsPolicy)),
		DB:       docstore.NewClient(*dbURL, docstore.WithClientPolicy(dbPolicy)),
		Auth:     reg,
		Images:   registry.NewCourseRegistry(),
		DataFS:   dataFS,
		DataPath: "/data",
	}
	// Spans and log events ship to the collector over the same broker
	// connection the worker already holds; the exporter never blocks job
	// execution (full queue = dropped record + counter).
	tracerOpts := []telemetry.TracerOption{
		telemetry.WithTracerInstance(telemetry.NewInstanceID(*id)),
	}
	if *telemetryOn {
		exp := telemetry.NewExporter(context.Background(), "raiworker", core.ShipTelemetry(queue),
			telemetry.WithExportMetrics(telReg))
		defer exp.Close()
		// The worker notes each job envelope's X-RAI-Sampled verdict on
		// this sampler (core.Worker.process), so its spans follow the
		// client's decision; -trace-sample only decides orphan traces.
		if *traceSample < 1 {
			w.Sampler = telemetry.NewSampler(*traceSample, telemetry.WithSamplerMetrics(telReg))
		}
		tracerOpts = append(tracerOpts, telemetry.WithSpanSink(w.Sampler.SpanSink(exp.ExportSpan)))
		w.Log = telemetry.NewLogger("raiworker",
			telemetry.WithLogWriter(stderr), telemetry.WithLogSink(exp.ExportEvent))
	} else {
		w.Log = telemetry.NewLogger("raiworker", telemetry.WithLogWriter(stderr))
	}
	w.Tracer = telemetry.NewTracer(4096, tracerOpts...)
	var metricsBound string
	health := telemetry.NewHealth()
	if telReg != nil {
		w.Telemetry = telReg
		telemetry.RegisterBuildInfo(telReg, "raiworker", version, nil)
		telemetry.RegisterProcessMetrics(telReg)
		mounts := []func(*http.ServeMux){health.Mount}
		if *pprofOn {
			mounts = append(mounts, telemetry.MountPprof)
		}
		maddr, closeMetrics, err := telReg.ServeMetrics(*metricsAddr, mounts...)
		if err != nil {
			fmt.Fprintf(stderr, "raiworker: metrics listener: %v\n", err)
			return 1
		}
		defer closeMetrics()
		metricsBound = maddr
		fmt.Fprintf(stdout, "raiworker metrics on http://%s/metrics\n", maddr)
	}
	fmt.Fprintf(stdout, "raiworker %s accepting jobs (concurrency %d)\n", *id, *concurrency)
	// Graceful shutdown: canceling runCtx closes the subscription (the
	// broker requeues undelivered jobs for other workers) while jobs
	// already executing drain to completion inside Run.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	done := make(chan error, 1)
	go func() { done <- w.Run(runCtx) }()
	if *readyPath != "" {
		info := readyfile.Info{Service: "raiworker", PID: os.Getpid(), MetricsAddr: metricsBound}
		if err := readyfile.Write(*readyPath, info); err != nil {
			fmt.Fprintf(stderr, "raiworker: %v\n", err)
			cancel()
			<-done
			return 1
		}
	}
	if ready != nil {
		close(ready)
	}
	health.SetReady(true)
	var runErr error
	select {
	case <-quit: // nil when running as a real daemon: blocks forever
		health.SetReady(false)
		cancel()
		runErr = <-done
	case <-ctx.Done():
		fmt.Fprintf(stdout, "raiworker %s draining in-flight jobs\n", *id)
		health.SetReady(false)
		cancel()
		runErr = <-done
	case runErr = <-done:
		health.SetReady(false)
	}
	if runErr != nil && runCtx.Err() == nil {
		fmt.Fprintf(stderr, "raiworker: %v\n", runErr)
		return 1
	}
	fmt.Fprintf(stdout, "raiworker %s handled %d jobs\n", *id, w.Handled())
	return 0
}

// buildDataVolume materializes the course /data volume: the pre-trained
// model and the small/full test datasets the build specs reference.
func buildDataVolume(seed uint64, fullImages int) (*vfs.FS, error) {
	dataFS := vfs.New()
	nw := cnn.NewNetwork(seed)
	model, err := nw.SaveModel()
	if err != nil {
		return nil, err
	}
	if err := dataFS.WriteFile("/data/model.hdf5", model); err != nil {
		return nil, err
	}
	small, err := cnn.SynthesizeDataset(nw, seed+1, 10)
	if err != nil {
		return nil, err
	}
	blob, err := small.Encode()
	if err != nil {
		return nil, err
	}
	if err := dataFS.WriteFile("/data/test10.hdf5", blob); err != nil {
		return nil, err
	}
	full, err := cnn.SynthesizeDataset(nw, seed+2, fullImages)
	if err != nil {
		return nil, err
	}
	blob, err = full.Encode()
	if err != nil {
		return nil, err
	}
	if err := dataFS.WriteFile("/data/testfull.hdf5", blob); err != nil {
		return nil, err
	}
	return dataFS, nil
}

func loadKeys(path string) (*auth.Registry, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var creds []auth.Credentials
	if err := json.Unmarshal(data, &creds); err != nil {
		return nil, fmt.Errorf("parsing %s: %w", path, err)
	}
	reg := auth.NewRegistry()
	for _, c := range creds {
		if err := reg.Register(c); err != nil {
			return nil, err
		}
	}
	return reg, nil
}
