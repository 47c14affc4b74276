// Command raidb runs the RAI metadata database: the MongoDB-like
// document store holding submission records, execution times, logs
// pointers, and competition rankings (paper §IV "MongoDB Database").
//
// Usage:
//
//	raidb [-addr host:port] [-store-root dir] [-metrics-addr host:port] [-pprof] [-broker host:port]
//	      [-ready-file path] [-version]
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	"rai/internal/blobstore"
	"rai/internal/brokerd"
	"rai/internal/core"
	"rai/internal/docstore"
	"rai/internal/netx"
	"rai/internal/readyfile"
	"rai/internal/telemetry"
)

// version is stamped by the CI pipeline; kept in lockstep with cmd/rai.
const version = "0.2.0-dev"

// The journal is the blob journal/rai.journal of the disk store at
// -store-root: the file <root>/journal/rai.journal, plus its .meta.
const (
	journalBucket = "journal"
	journalKey    = "rai.journal"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr, nil, nil))
}

func run(args []string, stdout, stderr io.Writer, ready chan<- string, quit <-chan struct{}) int {
	fs := flag.NewFlagSet("raidb", flag.ContinueOnError)
	fs.SetOutput(stderr)
	addr := fs.String("addr", "127.0.0.1:7402", "listen address (\":0\" picks a free port, reported on stdout and the ready file)")
	storeRoot := fs.String("store-root", "", "directory for durability; the journal lives at <root>/journal/rai.journal (empty = in-memory only)")
	metricsAddr := fs.String("metrics-addr", "", "serve GET /metrics on this address (empty = disabled)")
	pprofOn := fs.Bool("pprof", false, "mount /debug/pprof on the metrics address")
	brokerAddr := fs.String("broker", "", "broker address for shipping spans/events to the collector (empty = off)")
	drain := fs.Duration("drain", 10*time.Second, "in-flight request drain budget at shutdown")
	readyPath := fs.String("ready-file", "", "write a JSON readiness document (pid, bound addresses) here once serving")
	showVersion := fs.Bool("version", false, "print build information and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *showVersion {
		fmt.Fprintln(stdout, telemetry.NewStamp("raidb", version))
		return 0
	}
	var handlerOpts []docstore.HandlerOption
	var reg *telemetry.Registry
	var metricsBound string
	health := telemetry.NewHealth()
	if *metricsAddr != "" {
		reg = telemetry.NewRegistry()
		telemetry.RegisterBuildInfo(reg, "raidb", version, nil)
		telemetry.RegisterProcessMetrics(reg)
		handlerOpts = append(handlerOpts, docstore.WithTelemetry(reg))
		mounts := []func(*http.ServeMux){health.Mount}
		if *pprofOn {
			mounts = append(mounts, telemetry.MountPprof)
		}
		maddr, closeMetrics, err := reg.ServeMetrics(*metricsAddr, mounts...)
		if err != nil {
			fmt.Fprintf(stderr, "raidb: metrics listener: %v\n", err)
			return 1
		}
		defer closeMetrics()
		metricsBound = maddr
		fmt.Fprintf(stdout, "raidb metrics on http://%s/metrics\n", maddr)
	}
	// With a broker configured, finished spans (including the child spans
	// opened for traced requests) and log events ship to the collector.
	if *brokerAddr != "" {
		queue, err := brokerd.NewQueue(context.Background(), *brokerAddr, netx.Policy{}, 0)
		if err != nil {
			fmt.Fprintf(stderr, "raidb: broker: %v\n", err)
			return 1
		}
		defer queue.Close()
		exp := telemetry.NewExporter(context.Background(), "raidb", core.ShipTelemetry(queue),
			telemetry.WithExportMetrics(reg))
		defer exp.Close()
		tracer := telemetry.NewTracer(4096, telemetry.WithSpanSink(exp.ExportSpan),
			telemetry.WithTracerInstance(telemetry.NewInstanceID("raidb")))
		handlerOpts = append(handlerOpts, docstore.WithHandlerTracer(tracer))
		logger := telemetry.NewLogger("raidb",
			telemetry.WithLogWriter(stderr), telemetry.WithLogSink(exp.ExportEvent))
		logger.Info(context.Background(), "database started", telemetry.L("addr", *addr))
	}
	// Signals are live from here so Ctrl-C also aborts a long journal
	// replay, not only the serving loop.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	// As in raifs: a configured root directory means a journal on disk,
	// its absence memory only.
	db := docstore.New()
	if *storeRoot != "" {
		be, err := blobstore.NewDisk(*storeRoot)
		if err != nil {
			fmt.Fprintf(stderr, "raidb: opening store: %v\n", err)
			return 1
		}
		defer be.Close()
		if db, err = docstore.Open(ctx, be, journalBucket, journalKey); err != nil {
			fmt.Fprintf(stderr, "raidb: opening journal: %v\n", err)
			return 1
		}
		defer db.Close()
		fmt.Fprintf(stdout, "raidb journaling to %s\n", filepath.Join(*storeRoot, journalBucket, journalKey))
	}
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintf(stderr, "raidb: %v\n", err)
		return 1
	}
	srv := &http.Server{Handler: docstore.Handler(db, nil, handlerOpts...)}
	go func() { _ = srv.Serve(ln) }()
	fmt.Fprintf(stdout, "raidb listening on %s\n", ln.Addr())
	if *readyPath != "" {
		info := readyfile.Info{Service: "raidb", PID: os.Getpid(), Addr: ln.Addr().String(), MetricsAddr: metricsBound}
		if err := readyfile.Write(*readyPath, info); err != nil {
			fmt.Fprintf(stderr, "raidb: %v\n", err)
			return 1
		}
	}
	if ready != nil {
		ready <- ln.Addr().String()
	}
	health.SetReady(true)
	select {
	case <-quit: // nil when running as a real daemon: blocks forever
	case <-ctx.Done():
		fmt.Fprintln(stdout, "raidb shutting down")
	}
	// Graceful drain: in-flight queries finish (and reach the journal)
	// before the listener goes away. Readiness flips first so load
	// balancers stop routing before the listener dies.
	health.SetReady(false)
	dctx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := srv.Shutdown(dctx); err != nil {
		_ = srv.Close()
	}
	return 0
}
