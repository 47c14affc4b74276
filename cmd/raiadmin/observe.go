package main

// The observability subcommands: `raiadmin collect` runs the telemetry
// collector (broker -> docstore), `raiadmin trace` renders a job's
// cross-service span tree with the Figure 4 phase decomposition, and
// `raiadmin logs` tails a job's merged event stream.

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"strings"
	"time"

	"rai/internal/clock"
	"rai/internal/collector"
	"rai/internal/core"
	"rai/internal/daemon"
	"rai/internal/docstore"
	"rai/internal/netx"
	"rai/internal/telemetry"
)

// collect subscribes to the rai.telemetry route and persists batches
// into the database until interrupted. Optional stages ride along:
// tail-based trace retention (-tail-linger), a TTL sweep over the
// persisted collections (-retain), and an SLO engine that scrapes the
// deployment and exports rai_slo_* gauges (-slo-scrape).
func collect(args []string, stdout, stderr io.Writer, hooks daemon.Hooks) int {
	fs := flag.NewFlagSet("raiadmin collect", flag.ContinueOnError)
	fs.SetOutput(stderr)
	brokerAddr := fs.String("broker", "127.0.0.1:7400", "broker address")
	dbURL := fs.String("db", "http://127.0.0.1:7402", "database URL")
	metricsAddr := fs.String("metrics-addr", "", "serve the collector's own /metrics here (empty = off)")
	prefetch := fs.Int("prefetch", 64, "subscription in-flight window")
	retain := fs.Duration("retain", 0, "delete persisted traces and events older than this (0 = keep forever)")
	tailLinger := fs.Duration("tail-linger", 0, "buffer each trace this long after its last span before deciding retention (0 = persist everything immediately)")
	tailKeep := fs.Float64("tail-keep", 0.1, "retention probability for traces that are neither errored nor slow (with -tail-linger)")
	tailSlow := fs.Float64("tail-slow-quantile", 0.99, "always keep traces with root duration at or above this quantile of the observed distribution (with -tail-linger)")
	sloPath := fs.String("slo", "", "SLO config JSON (empty = the built-in objectives)")
	sloScrape := fs.String("slo-scrape", "", "comma-separated metrics URLs to evaluate SLOs against (empty = SLO engine off)")
	sloInterval := fs.Duration("slo-interval", 15*time.Second, "SLO scrape cadence (with -slo-scrape)")
	readyPath := fs.String("ready-file", "", "write a JSON readiness document (pid, metrics address) here once collecting")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	d, err := daemon.Start(context.Background(), daemon.Config{Service: "raiadmin-collect", MetricsAddr: *metricsAddr,
		ReadyFile: *readyPath, Stdout: stdout, Stderr: stderr, Hooks: hooks})
	if err != nil {
		fmt.Fprintf(stderr, "raiadmin collect: %v\n", err)
		return 1
	}
	defer d.Close()
	queue, err := d.Dial(*brokerAddr, netx.Policy{})
	if err != nil {
		fmt.Fprintf(stderr, "raiadmin collect: %v\n", err)
		return 1
	}
	c := &collector.Collector{
		Queue:     queue,
		DB:        docstore.NewClient(*dbURL),
		Telemetry: d.Registry,
		Log:       d.Log,
		Prefetch:  *prefetch,
		Tail: collector.TailConfig{
			Linger:       *tailLinger,
			KeepRate:     *tailKeep,
			SlowQuantile: *tailSlow,
		},
	}
	ctx := d.Context()
	if *retain > 0 {
		go c.RunRetention(ctx, collector.RetentionConfig{Retain: *retain})
		fmt.Fprintf(stdout, "retention sweep: dropping traces/events older than %v\n", *retain)
	}
	if *sloScrape != "" {
		engine, err := newSLOEngine(*sloPath)
		if err != nil {
			fmt.Fprintf(stderr, "raiadmin collect: %v\n", err)
			return 1
		}
		engine.Export(d.Registry)
		urls := strings.Split(*sloScrape, ",")
		go engine.Run(ctx, urls, *sloInterval, func(err error) {
			fmt.Fprintf(stderr, "raiadmin collect: slo scrape: %v\n", err)
		})
		fmt.Fprintf(stdout, "slo engine scraping %d endpoint(s) every %v\n", len(urls), *sloInterval)
	}
	fmt.Fprintf(stdout, "collecting %s/%s from %s into %s\n",
		core.TelemetryTopic, core.TelemetryChannel, *brokerAddr, *dbURL)
	// Readiness is published before Run's subscribe completes; the
	// broker buffers the telemetry topic's backlog, so records published
	// in that window are delivered, not lost.
	if err := d.Ready(""); err != nil {
		fmt.Fprintf(stderr, "raiadmin collect: %v\n", err)
		return 1
	}
	// A stop that lands while Run still subscribes is a clean stop too.
	if err := c.Run(ctx); err != nil && ctx.Err() == nil {
		fmt.Fprintf(stderr, "raiadmin collect: %v\n", err)
		return 1
	}
	return 0
}

// traceCmd prints the assembled span tree for one job — or, with
// -slowest, for the kept trace whose root lasted longest: the bridge
// from "the p99 looks bad" to the concrete request that caused it.
func traceCmd(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("raiadmin trace", flag.ContinueOnError)
	fs.SetOutput(stderr)
	dbURL := fs.String("db", "http://127.0.0.1:7402", "database URL")
	slowest := fs.Bool("slowest", false, "render the kept trace with the longest root span instead of a job's")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	db := docstore.NewClient(*dbURL)
	var traceID string
	var err error
	switch {
	case *slowest && fs.NArg() == 0:
		traceID, err = collector.SlowestTrace(ctx, db)
		if errors.Is(err, docstore.ErrNotFound) {
			err = fmt.Errorf("no root spans persisted in %s", *dbURL)
		}
	case !*slowest && fs.NArg() == 1:
		traceID, err = collector.TraceIDForJob(ctx, db, fs.Arg(0))
	default:
		fmt.Fprintln(stderr, "usage: raiadmin trace [-db url] <job_id> | -slowest")
		return 2
	}
	if err != nil {
		fmt.Fprintf(stderr, "raiadmin trace: %v\n", err)
		return 1
	}
	spans, err := collector.TraceSpans(ctx, db, traceID)
	if err != nil {
		fmt.Fprintf(stderr, "raiadmin trace: %v\n", err)
		return 1
	}
	if len(spans) == 0 {
		fmt.Fprintf(stderr, "raiadmin trace: trace %s has no persisted spans (expired by -retain or not yet collected)\n", traceID)
		return 1
	}
	fmt.Fprintf(stdout, "trace %s (%d spans)\n\n", traceID, len(spans))
	fmt.Fprint(stdout, collector.FormatTimeline(spans))
	return 0
}

// logsCmd prints (and with -follow, tails) a job's merged event stream.
func logsCmd(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("raiadmin logs", flag.ContinueOnError)
	fs.SetOutput(stderr)
	dbURL := fs.String("db", "http://127.0.0.1:7402", "database URL")
	follow := fs.Bool("follow", false, "poll for new events until interrupted")
	// Events reach the database one exporter flush after they happen, so
	// polling at that cadence keeps a follower at most one flush behind.
	interval := fs.Duration("interval", telemetry.DefaultExportInterval, "poll interval with -follow")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 1 {
		fmt.Fprintln(stderr, "usage: raiadmin logs [-db url] [-follow] <job_id>")
		return 2
	}
	jobID := fs.Arg(0)
	db := docstore.NewClient(*dbURL)

	var cursor float64
	print := func() error {
		events, err := collector.EventsByJob(ctx, db, jobID, cursor)
		if err != nil {
			return err
		}
		for _, e := range events {
			fmt.Fprintln(stdout, e.Text())
			if ts := collector.EventUnixSeconds(e); ts > cursor {
				cursor = ts
			}
		}
		return nil
	}
	if err := print(); err != nil {
		fmt.Fprintf(stderr, "raiadmin logs: %v\n", err)
		return 1
	}
	if !*follow {
		return 0
	}
	for {
		select {
		case <-ctx.Done():
			return 0
		case <-clock.Real{}.After(*interval):
		}
		if err := print(); err != nil {
			if ctx.Err() != nil {
				return 0 // interrupted mid-read, not a failure
			}
			fmt.Fprintf(stderr, "raiadmin logs: %v\n", err)
			return 1
		}
	}
}
