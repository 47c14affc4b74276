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
	"os"

	"rai/internal/broker"
	"rai/internal/brokerd"
	"rai/internal/core"
	"rai/internal/daemon"
	"rai/internal/telemetry"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr, daemon.Hooks{}))
}

// run starts the daemon and serves until SIGINT/SIGTERM or, in tests,
// hooks.Quit.
func run(args []string, stdout, stderr io.Writer, hooks daemon.Hooks) int {
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
		fmt.Fprintln(stdout, telemetry.NewStamp("raibroker"))
		return 0
	}
	d, err := daemon.Start(context.Background(), daemon.Config{Service: "raibroker", MetricsAddr: *metricsAddr,
		Pprof: *pprofOn, ReadyFile: *readyPath, Stdout: stdout, Stderr: stderr, Hooks: hooks})
	if err != nil {
		fmt.Fprintf(stderr, "raibroker: %v\n", err)
		return 1
	}
	defer d.Close()
	var bopts []broker.Option
	var sopts []brokerd.ServerOption
	if d.Registry != nil {
		bopts = append(bopts, broker.WithTelemetry(d.Registry))
		sopts = append(sopts, brokerd.WithTelemetry(d.Registry))
	}
	b := broker.New(bopts...)
	defer b.Close()
	// Telemetry batches are droppable; cap their no-collector backlog so
	// the engine cannot grow without bound.
	b.SetBacklogLimit(core.TelemetryTopic, 4096)
	b.ExportQueueDepth(core.TasksTopic, core.TasksChannel)
	srv, err := brokerd.NewServer(context.Background(), b, *addr, sopts...)
	if err != nil {
		fmt.Fprintf(stderr, "raibroker: %v\n", err)
		return 1
	}
	defer srv.Close()
	if d.Registry != nil {
		// The broker ships its own telemetry into its own engine — the
		// collector subscribes over TCP like any other consumer.
		d.Ship(b)
		d.Log.Info(d.Context(), "broker started", telemetry.L("addr", *addr))
	}
	fmt.Fprintf(stdout, "raibroker listening on %s\n", srv.Addr())
	if err := d.Ready(srv.Addr()); err != nil {
		fmt.Fprintf(stderr, "raibroker: %v\n", err)
		return 1
	}
	// Serve until asked to stop. Closing the server drops every
	// connection, which requeues unacked deliveries inside the engine
	// before b.Close releases it — clients built on brokerd.ReconnClient
	// redial and pick up where they left off when the daemon returns.
	<-d.Context().Done()
	fmt.Fprintln(stdout, "raibroker shutting down")
	return 0
}
