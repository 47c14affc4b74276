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
	"path/filepath"
	"time"

	"rai/internal/blobstore"
	"rai/internal/daemon"
	"rai/internal/docstore"
	"rai/internal/netx"
	"rai/internal/telemetry"
)

// The journal is the blob journal/rai.journal of the disk store at
// -store-root: the file <root>/journal/rai.journal, plus its .meta.
const (
	journalBucket = "journal"
	journalKey    = "rai.journal"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr, daemon.Hooks{}))
}

func run(args []string, stdout, stderr io.Writer, hooks daemon.Hooks) int {
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
		fmt.Fprintln(stdout, telemetry.NewStamp("raidb"))
		return 0
	}
	// Signals are live from here, so Ctrl-C also aborts a long journal
	// replay, not only the serving loop.
	d, err := daemon.Start(context.Background(), daemon.Config{Service: "raidb", MetricsAddr: *metricsAddr,
		Pprof: *pprofOn, ReadyFile: *readyPath, Stdout: stdout, Stderr: stderr, Hooks: hooks})
	if err != nil {
		fmt.Fprintf(stderr, "raidb: %v\n", err)
		return 1
	}
	defer d.Close()
	// With a broker configured, finished spans (including the child spans
	// opened for traced requests) and log events ship to the collector.
	if *brokerAddr != "" {
		queue, err := d.Dial(*brokerAddr, netx.Policy{})
		if err != nil {
			fmt.Fprintf(stderr, "raidb: broker: %v\n", err)
			return 1
		}
		d.Ship(queue)
		d.Log.Info(d.Context(), "database started", telemetry.L("addr", *addr))
	}
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
		if db, err = docstore.Open(d.Context(), be, journalBucket, journalKey); err != nil {
			fmt.Fprintf(stderr, "raidb: opening journal: %v\n", err)
			return 1
		}
		defer db.Close()
		fmt.Fprintf(stdout, "raidb journaling to %s\n", filepath.Join(*storeRoot, journalBucket, journalKey))
	}
	handlerOpts := []docstore.HandlerOption{docstore.WithHandlerTracer(d.Tracer)}
	if d.Registry != nil {
		handlerOpts = append(handlerOpts, docstore.WithTelemetry(d.Registry))
	}
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintf(stderr, "raidb: %v\n", err)
		return 1
	}
	srv := &http.Server{Handler: docstore.Handler(db, handlerOpts...)}
	go func() { _ = srv.Serve(ln) }()
	fmt.Fprintf(stdout, "raidb listening on %s\n", ln.Addr())
	if err := d.Ready(ln.Addr().String()); err != nil {
		fmt.Fprintf(stderr, "raidb: %v\n", err)
		_ = srv.Close()
		return 1
	}
	<-d.Context().Done()
	fmt.Fprintln(stdout, "raidb shutting down")
	// Graceful drain: in-flight queries finish (and reach the journal)
	// before the listener goes away. Readiness has already dropped, so
	// load balancers stop routing before the listener dies.
	dctx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := srv.Shutdown(dctx); err != nil {
		_ = srv.Close()
	}
	return 0
}
