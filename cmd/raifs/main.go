// Command raifs runs the RAI file server: the S3-like object store that
// holds student project uploads and worker /build outputs (paper §IV
// "File Storage Server"), with per-object lifetimes measured from last
// use.
//
// Usage:
//
//	raifs [-addr host:port] [-capacity bytes] [-ttl duration] [-keys keys.json] [-store-root objects/]
//	      [-cas-root chunks/]
//	      [-metrics-addr host:port] [-pprof] [-broker host:port] [-trace-sample 1]
//	      [-ready-file path] [-version]
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"rai/internal/brokerd"
	"rai/internal/clock"
	"syscall"
	"time"

	"rai/internal/auth"
	"rai/internal/blobstore"
	"rai/internal/cas"
	"rai/internal/core"
	"rai/internal/netx"
	"rai/internal/objstore"
	"rai/internal/readyfile"
	"rai/internal/telemetry"
)

// version is stamped by the CI pipeline; kept in lockstep with cmd/rai.
const version = "0.2.0-dev"

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr, nil, nil))
}

func run(args []string, stdout, stderr io.Writer, ready chan<- string, quit <-chan struct{}) int {
	fs := flag.NewFlagSet("raifs", flag.ContinueOnError)
	fs.SetOutput(stderr)
	addr := fs.String("addr", "127.0.0.1:7401", "listen address (\":0\" picks a free port, reported on stdout and the ready file)")
	capacity := fs.Int64("capacity", 0, "total byte capacity (0 = unlimited)")
	ttl := fs.Duration("ttl", 30*24*time.Hour, "default object lifetime from last use")
	keysPath := fs.String("keys", "", "credentials file for request authentication (empty = open)")
	storeRoot := fs.String("store-root", "", "directory for durable object storage (empty = in-memory)")
	casRoot := fs.String("cas-root", "", "separate disk root for the content-addressed chunk bucket ("+cas.Bucket+"); empty = same backend as everything else")
	metricsAddr := fs.String("metrics-addr", "", "serve GET /metrics on this address (empty = disabled)")
	pprofOn := fs.Bool("pprof", false, "mount /debug/pprof on the metrics address")
	brokerAddr := fs.String("broker", "", "broker address for shipping spans/events to the collector (empty = off)")
	traceSample := fs.Float64("trace-sample", 1, "head-sampling rate for traces this server starts spans for; propagated X-RAI-Sampled verdicts always win")
	drain := fs.Duration("drain", 10*time.Second, "in-flight request drain budget at shutdown")
	readyPath := fs.String("ready-file", "", "write a JSON readiness document (pid, bound addresses) here once serving")
	showVersion := fs.Bool("version", false, "print build information and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *showVersion {
		fmt.Fprintln(stdout, telemetry.NewStamp("raifs", version))
		return 0
	}
	// A configured root directory means the disk backend, its absence
	// memory.
	var be blobstore.Backend
	if *storeRoot != "" {
		disk, err := blobstore.NewDisk(*storeRoot, blobstore.WithCapacity(*capacity), blobstore.WithDefaultTTL(*ttl))
		if err != nil {
			fmt.Fprintf(stderr, "raifs: %v\n", err)
			return 1
		}
		be = disk
		fmt.Fprintf(stdout, "raifs persisting to %s\n", *storeRoot)
	} else {
		be = blobstore.NewMemory(blobstore.WithCapacity(*capacity), blobstore.WithDefaultTTL(*ttl))
	}
	if *casRoot != "" {
		// Chunks live on their own spindle: dedup storage is hot (every
		// delta submission negotiates against it) and long-lived, so
		// deployments can give it separate durable space without moving
		// the rest of the buckets.
		casBE, err := blobstore.NewDisk(*casRoot, blobstore.WithDefaultTTL(*ttl))
		if err != nil {
			fmt.Fprintf(stderr, "raifs: -cas-root: %v\n", err)
			return 1
		}
		table := blobstore.NewTable(be)
		if err := table.Mount(cas.Bucket, casBE); err != nil {
			fmt.Fprintf(stderr, "raifs: -cas-root: %v\n", err)
			return 1
		}
		be = table
		fmt.Fprintf(stdout, "raifs chunk store (%s) persisting to %s\n", cas.Bucket, *casRoot)
	}
	store := objstore.NewWithBackend(be)
	var authFn objstore.AuthFunc
	if *keysPath != "" {
		reg, err := loadKeys(*keysPath)
		if err != nil {
			fmt.Fprintf(stderr, "raifs: %v\n", err)
			return 1
		}
		authFn = objstore.AuthFunc(reg.HTTPAuth())
	}
	var handlerOpts []objstore.HandlerOption
	var reg *telemetry.Registry
	var metricsBound string
	health := telemetry.NewHealth()
	if *metricsAddr != "" {
		reg = telemetry.NewRegistry()
		telemetry.RegisterBuildInfo(reg, "raifs", version, nil)
		telemetry.RegisterProcessMetrics(reg)
		handlerOpts = append(handlerOpts, objstore.WithTelemetry(reg))
		mounts := []func(*http.ServeMux){health.Mount}
		if *pprofOn {
			mounts = append(mounts, telemetry.MountPprof)
		}
		maddr, closeMetrics, err := reg.ServeMetrics(*metricsAddr, mounts...)
		if err != nil {
			fmt.Fprintf(stderr, "raifs: metrics listener: %v\n", err)
			return 1
		}
		defer closeMetrics()
		metricsBound = maddr
		fmt.Fprintf(stdout, "raifs metrics on http://%s/metrics\n", maddr)
	}
	// With a broker configured, finished spans (including the child spans
	// opened for traced requests) and log events ship to the collector.
	if *brokerAddr != "" {
		queue, err := brokerd.NewQueue(context.Background(), *brokerAddr, netx.Policy{}, 0)
		if err != nil {
			fmt.Fprintf(stderr, "raifs: broker: %v\n", err)
			return 1
		}
		defer queue.Close()
		exp := telemetry.NewExporter(context.Background(), "raifs", core.ShipTelemetry(queue),
			telemetry.WithExportMetrics(reg))
		defer exp.Close()
		// The sampler honors propagated X-RAI-Sampled verdicts (noted by
		// the handler) and hashes orphan traces at the local rate; spans
		// of dropped traces are filtered before the export queue.
		var sampler *telemetry.Sampler
		if *traceSample < 1 {
			sampler = telemetry.NewSampler(*traceSample, telemetry.WithSamplerMetrics(reg))
			handlerOpts = append(handlerOpts, objstore.WithHandlerSampler(sampler))
		}
		tracer := telemetry.NewTracer(4096, telemetry.WithSpanSink(sampler.SpanSink(exp.ExportSpan)),
			telemetry.WithTracerInstance(telemetry.NewInstanceID("raifs")))
		handlerOpts = append(handlerOpts, objstore.WithHandlerTracer(tracer))
		logger := telemetry.NewLogger("raifs",
			telemetry.WithLogWriter(stderr), telemetry.WithLogSink(exp.ExportEvent))
		logger.Info(context.Background(), "file server started", telemetry.L("addr", *addr))
	}
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintf(stderr, "raifs: %v\n", err)
		return 1
	}
	srv := &http.Server{Handler: objstore.Handler(store, authFn, handlerOpts...)}
	go func() { _ = srv.Serve(ln) }()
	fmt.Fprintf(stdout, "raifs listening on %s\n", ln.Addr())
	if *readyPath != "" {
		info := readyfile.Info{Service: "raifs", PID: os.Getpid(), Addr: ln.Addr().String(), MetricsAddr: metricsBound}
		if err := readyfile.Write(*readyPath, info); err != nil {
			fmt.Fprintf(stderr, "raifs: %v\n", err)
			return 1
		}
	}
	if ready != nil {
		ready <- ln.Addr().String()
	}
	health.SetReady(true)
	// Periodic expired-object sweep, active however the daemon was
	// started (it used to run only in the signal path, so test-driven
	// daemons never swept).
	sweepCtx, stopSweep := context.WithCancel(context.Background())
	defer stopSweep()
	go func() {
		clk := clock.Real{}
		for {
			select {
			case <-clk.After(time.Hour):
				_, _ = store.Sweep(sweepCtx)
			case <-sweepCtx.Done():
				return
			}
		}
	}()
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	select {
	case <-quit: // nil when running as a real daemon: blocks forever
	case <-ctx.Done():
		fmt.Fprintln(stdout, "raifs shutting down")
	}
	// Graceful drain: stop accepting, finish in-flight uploads and
	// downloads within the budget, then cut whatever is left. Readiness
	// flips first so load balancers stop routing before the listener dies.
	health.SetReady(false)
	dctx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := srv.Shutdown(dctx); err != nil {
		_ = srv.Close()
	}
	return 0
}

// loadKeys reads a keygen-produced credentials file into a registry.
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
