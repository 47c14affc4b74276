// Command raibroker runs the RAI message broker as a standalone TCP
// daemon — the queue service of the paper's Figure 1. Clients publish
// job requests onto rai/tasks; workers subscribe and stream job output
// back on ephemeral log_${job_id} topics.
//
// Usage:
//
//	raibroker [-addr host:port] [-metrics-addr host:port] [-pprof]
//	          [-ready-file path] [-version]
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/signal"
	"syscall"

	"rai/internal/broker"
	"rai/internal/brokerd"
	"rai/internal/core"
	"rai/internal/readyfile"
	"rai/internal/telemetry"
)

// version is stamped by the CI pipeline; kept in lockstep with cmd/rai.
const version = "0.2.0-dev"

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr, nil, nil))
}

// run starts the daemon; ready (when non-nil) receives the bound address
// once listening — tests use it, main passes nil and blocks on signals.
func run(args []string, stdout, stderr io.Writer, ready chan<- string, quit <-chan struct{}) int {
	fs := flag.NewFlagSet("raibroker", flag.ContinueOnError)
	fs.SetOutput(stderr)
	addr := fs.String("addr", "127.0.0.1:7400", "listen address (\":0\" picks a free port, reported on stdout and the ready file)")
	metricsAddr := fs.String("metrics-addr", "", "serve GET /metrics on this address (empty = disabled)")
	pprofOn := fs.Bool("pprof", false, "mount /debug/pprof on the metrics address")
	readyPath := fs.String("ready-file", "", "write a JSON readiness document (pid, bound addresses) here once serving")
	showVersion := fs.Bool("version", false, "print build information and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *showVersion {
		fmt.Fprintln(stdout, telemetry.NewStamp("raibroker", version))
		return 0
	}
	var bopts []broker.Option
	var sopts []brokerd.ServerOption
	var reg *telemetry.Registry
	if *metricsAddr != "" {
		reg = telemetry.NewRegistry()
		bopts = append(bopts, broker.WithTelemetry(reg))
		sopts = append(sopts, brokerd.WithTelemetry(reg))
	}
	b := broker.New(bopts...)
	// Telemetry batches are droppable; cap their no-collector backlog so
	// the engine cannot grow without bound.
	b.SetBacklogLimit(core.TelemetryTopic, 4096)
	if reg != nil {
		b.ExportQueueDepth(core.TasksTopic, core.TasksChannel)
	}
	srv, err := brokerd.NewServer(context.Background(), b, *addr, sopts...)
	if err != nil {
		fmt.Fprintf(stderr, "raibroker: %v\n", err)
		return 1
	}
	var exp *telemetry.Exporter
	var metricsBound string
	health := telemetry.NewHealth()
	if reg != nil {
		telemetry.RegisterBuildInfo(reg, "raibroker", version, nil)
		telemetry.RegisterProcessMetrics(reg)
		mounts := []func(*http.ServeMux){health.Mount}
		if *pprofOn {
			mounts = append(mounts, telemetry.MountPprof)
		}
		maddr, closeMetrics, err := reg.ServeMetrics(*metricsAddr, mounts...)
		if err != nil {
			fmt.Fprintf(stderr, "raibroker: metrics listener: %v\n", err)
			_ = srv.Close()
			b.Close()
			return 1
		}
		defer closeMetrics()
		metricsBound = maddr
		fmt.Fprintf(stdout, "raibroker metrics on http://%s/metrics\n", maddr)
		// The broker ships its own telemetry into its own engine — the
		// collector subscribes over TCP like any other consumer.
		exp = telemetry.NewExporter(context.Background(), "raibroker", core.ShipTelemetry(b),
			telemetry.WithExportMetrics(reg))
		defer exp.Close()
		logger := telemetry.NewLogger("raibroker",
			telemetry.WithLogWriter(stderr), telemetry.WithLogSink(exp.ExportEvent))
		logger.Info(context.Background(), "broker started", telemetry.L("addr", *addr))
	}
	defer srv.Close()
	defer b.Close()
	fmt.Fprintf(stdout, "raibroker listening on %s\n", srv.Addr())
	if *readyPath != "" {
		info := readyfile.Info{Service: "raibroker", PID: os.Getpid(), Addr: srv.Addr(), MetricsAddr: metricsBound}
		if err := readyfile.Write(*readyPath, info); err != nil {
			fmt.Fprintf(stderr, "raibroker: %v\n", err)
			return 1
		}
	}
	if ready != nil {
		ready <- srv.Addr()
	}
	health.SetReady(true)
	// Block until asked to stop: quit (tests) or SIGINT/SIGTERM. Closing
	// the server drops every connection, which requeues unacked
	// deliveries inside the engine before b.Close releases it — clients
	// built on brokerd.ReconnClient redial and pick up where they left
	// off when the daemon returns.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	select {
	case <-quit: // nil when running as a real daemon: blocks forever
	case <-ctx.Done():
		fmt.Fprintln(stdout, "raibroker shutting down")
	}
	health.SetReady(false)
	return 0
}
