// Command raifs runs the RAI file server: the S3-like object store that
// holds student project uploads and worker /build outputs (paper §IV
// "File Storage Server"), with per-object lifetimes measured from last
// use.
//
// Usage:
//
//	raifs [-addr host:port] [-capacity bytes] [-ttl duration] [-keys keys.json] [-store-root objects/]
//	      [-metrics-addr host:port] [-pprof] [-broker host:port]
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
	"time"

	"rai/internal/auth"
	"rai/internal/blobstore"
	"rai/internal/clock"
	"rai/internal/daemon"
	"rai/internal/netx"
	"rai/internal/objstore"
	"rai/internal/telemetry"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr, daemon.Hooks{}))
}

func run(args []string, stdout, stderr io.Writer, hooks daemon.Hooks) int {
	fs := flag.NewFlagSet("raifs", flag.ContinueOnError)
	fs.SetOutput(stderr)
	addr := fs.String("addr", "127.0.0.1:7401", "listen address (\":0\" picks a free port, reported on stdout and the ready file)")
	capacity := fs.Int64("capacity", 0, "total byte capacity (0 = unlimited)")
	ttl := fs.Duration("ttl", 30*24*time.Hour, "default object lifetime from last use")
	keysPath := fs.String("keys", "", "credentials file for request authentication (empty = open)")
	storeRoot := fs.String("store-root", "", "directory for durable object storage (empty = in-memory)")
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
		fmt.Fprintln(stdout, telemetry.NewStamp("raifs"))
		return 0
	}
	d, err := daemon.Start(context.Background(), daemon.Config{Service: "raifs", MetricsAddr: *metricsAddr,
		Pprof: *pprofOn, ReadyFile: *readyPath, Stdout: stdout, Stderr: stderr, Hooks: hooks})
	if err != nil {
		fmt.Fprintf(stderr, "raifs: %v\n", err)
		return 1
	}
	defer d.Close()
	// With a broker configured, finished spans (including the child spans
	// opened for traced requests) and log events ship to the collector.
	if *brokerAddr != "" {
		queue, err := d.Dial(*brokerAddr, netx.Policy{})
		if err != nil {
			fmt.Fprintf(stderr, "raifs: broker: %v\n", err)
			return 1
		}
		d.Ship(queue)
		d.Log.Info(d.Context(), "file server started", telemetry.L("addr", *addr))
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
	store := objstore.NewWithBackend(be)
	var authFn objstore.AuthFunc
	if *keysPath != "" {
		reg, err := auth.ReadKeys(*keysPath)
		if err != nil {
			fmt.Fprintf(stderr, "raifs: %v\n", err)
			return 1
		}
		authFn = objstore.AuthFunc(reg.HTTPAuth())
	}
	handlerOpts := []objstore.HandlerOption{objstore.WithHandlerTracer(d.Tracer)}
	if d.Registry != nil {
		handlerOpts = append(handlerOpts, objstore.WithTelemetry(d.Registry))
	}
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintf(stderr, "raifs: %v\n", err)
		return 1
	}
	srv := &http.Server{Handler: objstore.Handler(store, authFn, handlerOpts...)}
	go func() { _ = srv.Serve(ln) }()
	fmt.Fprintf(stdout, "raifs listening on %s\n", ln.Addr())
	if err := d.Ready(ln.Addr().String()); err != nil {
		fmt.Fprintf(stderr, "raifs: %v\n", err)
		_ = srv.Close()
		return 1
	}
	// Periodic expired-object sweep, active however the daemon was
	// started (it used to run only in the signal path, so test-driven
	// daemons never swept).
	go func() {
		clk := clock.Real{}
		for {
			select {
			case <-clk.After(time.Hour):
				_, _ = store.Sweep(d.Context())
			case <-d.Context().Done():
				return
			}
		}
	}()
	<-d.Context().Done()
	fmt.Fprintln(stdout, "raifs shutting down")
	// Graceful drain: stop accepting, finish in-flight uploads and
	// downloads within the budget, then cut whatever is left. Readiness
	// has already dropped, so load balancers stop routing before the
	// listener dies.
	dctx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := srv.Shutdown(dctx); err != nil {
		_ = srv.Close()
	}
	return 0
}
