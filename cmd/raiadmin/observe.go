package main

// The observability subcommands: `raiadmin collect` runs the telemetry
// collector (broker -> docstore), `raiadmin trace` renders a job's
// cross-service span tree with the Figure 4 phase decomposition, and
// `raiadmin logs` tails a job's merged event stream.

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"rai/internal/brokerd"
	"rai/internal/clock"
	"strings"
	"syscall"
	"time"

	"rai/internal/collector"
	"rai/internal/core"
	"rai/internal/docstore"
	"rai/internal/netx"
	"rai/internal/readyfile"
	"rai/internal/telemetry"
)

// collect subscribes to the rai.telemetry route and persists batches
// into the database until interrupted. Optional stages ride along:
// tail-based trace retention (-tail-linger), a TTL sweep over the
// persisted collections (-retain), and an SLO engine that scrapes the
// deployment and exports rai_slo_* gauges (-slo-scrape).
func collect(args []string, stdout, stderr io.Writer, quit <-chan struct{}) int {
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
	queue, err := brokerd.NewQueue(context.Background(), *brokerAddr, netx.Policy{}, 0)
	if err != nil {
		fmt.Fprintf(stderr, "raiadmin collect: %v\n", err)
		return 1
	}
	defer queue.Close()

	reg := telemetry.NewRegistry()
	telemetry.RegisterBuildInfo(reg, "raiadmin-collect", version, nil)
	telemetry.RegisterProcessMetrics(reg)
	health := telemetry.NewHealth()
	var metricsBound string
	if *metricsAddr != "" {
		addr, closeMetrics, err := reg.ServeMetrics(*metricsAddr, health.Mount)
		if err != nil {
			fmt.Fprintf(stderr, "raiadmin collect: metrics listener: %v\n", err)
			return 1
		}
		defer closeMetrics()
		metricsBound = addr
		fmt.Fprintf(stdout, "metrics on http://%s/metrics\n", addr)
	}

	c := &collector.Collector{
		Queue:     queue,
		DB:        docstore.NewClient(*dbURL),
		Telemetry: reg,
		Log:       telemetry.NewLogger("raiadmin-collect", telemetry.WithLogWriter(stderr)),
		Prefetch:  *prefetch,
		Tail: collector.TailConfig{
			Linger:       *tailLinger,
			KeepRate:     *tailKeep,
			SlowQuantile: *tailSlow,
		},
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	go func() {
		select {
		case <-quit: // nil when running as the real command: only a signal stops it
			stop()
		case <-ctx.Done():
		}
	}()
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
		engine.Export(reg)
		urls := strings.Split(*sloScrape, ",")
		go engine.Run(ctx, urls, *sloInterval, func(err error) {
			fmt.Fprintf(stderr, "raiadmin collect: slo scrape: %v\n", err)
		})
		fmt.Fprintf(stdout, "slo engine scraping %d endpoint(s) every %v\n", len(urls), *sloInterval)
	}
	fmt.Fprintf(stdout, "collecting %s/%s from %s into %s\n",
		core.TelemetryTopic, core.TelemetryChannel, *brokerAddr, *dbURL)
	// The ready file is written before Run's subscribe completes; the
	// broker buffers the telemetry topic's backlog, so records published
	// in that window are delivered, not lost.
	if *readyPath != "" {
		info := readyfile.Info{Service: "raiadmin-collect", PID: os.Getpid(), MetricsAddr: metricsBound}
		if err := readyfile.Write(*readyPath, info); err != nil {
			fmt.Fprintf(stderr, "raiadmin collect: %v\n", err)
			return 1
		}
	}
	health.SetReady(true)
	defer health.SetReady(false)
	if err := c.Run(ctx); err != nil {
		fmt.Fprintf(stderr, "raiadmin collect: %v\n", err)
		return 1
	}
	return 0
}

// traceCmd prints the assembled span tree for one job — or, with
// -exemplar, for the trace a histogram exemplar points at: the bridge
// from "the p99 looks bad" to the concrete request that caused it.
func traceCmd(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("raiadmin trace", flag.ContinueOnError)
	fs.SetOutput(stderr)
	dbURL := fs.String("db", "http://127.0.0.1:7402", "database URL")
	exemplar := fs.String("exemplar", "", `pick the trace from a scraped exemplar instead of a job id ("slowest" = largest exemplar value)`)
	metricsURL := fs.String("metrics", "", "metrics URL to scrape for -exemplar")
	metricName := fs.String("metric", "", "restrict -exemplar to metric names with this prefix")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	db := docstore.NewClient(*dbURL)
	if *exemplar != "" {
		if *exemplar != "slowest" {
			fmt.Fprintf(stderr, "raiadmin trace: unknown -exemplar %q (only \"slowest\" is supported)\n", *exemplar)
			return 2
		}
		if *metricsURL == "" || fs.NArg() != 0 {
			fmt.Fprintln(stderr, "usage: raiadmin trace -exemplar slowest -metrics url [-metric prefix] [-db url]")
			return 2
		}
		snap, err := scrapeMetrics(*metricsURL)
		if err != nil {
			fmt.Fprintf(stderr, "raiadmin trace: %s: %v\n", *metricsURL, err)
			return 1
		}
		best := slowestExemplar(snap, *metricName)
		if best == nil {
			fmt.Fprintf(stderr, "raiadmin trace: no exemplars with trace links on %s (is the daemon recording with ObserveExemplar?)\n", *metricsURL)
			return 1
		}
		traceID := best.Exemplar.TraceID()
		fmt.Fprintf(stdout, "slowest exemplar: %s = %.6gs (trace %s)\n\n", best.Name, best.Exemplar.Value, traceID)
		spans, err := collector.TraceSpans(ctx, db, traceID)
		if err != nil {
			fmt.Fprintf(stderr, "raiadmin trace: %v\n", err)
			return 1
		}
		if len(spans) == 0 {
			fmt.Fprintf(stderr, "raiadmin trace: trace %s has no persisted spans (sampled out, not yet collected, or expired by -retain)\n", traceID)
			return 1
		}
		fmt.Fprint(stdout, collector.FormatTimeline(spans))
		return 0
	}
	if fs.NArg() != 1 {
		fmt.Fprintln(stderr, "usage: raiadmin trace [-db url] <job_id>")
		return 2
	}
	jobID := fs.Arg(0)
	spans, err := collector.TraceByJob(ctx, db, jobID)
	if err != nil {
		fmt.Fprintf(stderr, "raiadmin trace: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "job %s trace %s (%d spans)\n\n", jobID, spans[0].TraceID, len(spans))
	fmt.Fprint(stdout, collector.FormatTimeline(spans))
	return 0
}

// slowestExemplar scans a scrape for the bucket exemplar with the
// largest value whose metric name matches the prefix and that carries a
// trace link. Nil when the scrape holds none.
func slowestExemplar(snap *telemetry.Snapshot, prefix string) *telemetry.Sample {
	var best *telemetry.Sample
	for i := range snap.Samples {
		s := &snap.Samples[i]
		if prefix != "" && !strings.HasPrefix(s.Name, prefix) {
			continue
		}
		if s.Exemplar == nil || s.Exemplar.TraceID() == "" {
			continue
		}
		if best == nil || s.Exemplar.Value > best.Exemplar.Value {
			best = s
		}
	}
	return best
}

// logsCmd prints (and with -follow, tails) a job's merged event stream.
func logsCmd(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("raiadmin logs", flag.ContinueOnError)
	fs.SetOutput(stderr)
	dbURL := fs.String("db", "http://127.0.0.1:7402", "database URL")
	follow := fs.Bool("follow", false, "poll for new events until interrupted")
	interval := fs.Duration("interval", 2*time.Second, "poll interval with -follow")
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
	// Prefer the database's watch stream: each insert into the events
	// collection wakes the cursor immediately instead of waiting out a
	// poll interval. When Watch fails or the stream ends (a server
	// without /w/, a restart mid-tail) ch is nil, which never fires, and
	// the cursor wakes on a fixed cadence instead.
	ch, _ := db.Watch(ctx, core.CollEvents)
	for {
		var tick <-chan time.Time
		if ch == nil {
			tick = clock.Real{}.After(*interval)
		}
		select {
		case <-ctx.Done():
			return 0
		case _, ok := <-ch:
			if !ok {
				ch = nil
				continue
			}
			drainWatch(ch)
		case <-tick:
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

// drainWatch empties queued notifications so one print covers a burst.
func drainWatch(ch <-chan docstore.WatchEvent) {
	for {
		select {
		case _, ok := <-ch:
			if !ok {
				return
			}
		default:
			return
		}
	}
}
