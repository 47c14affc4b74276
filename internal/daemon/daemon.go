// Package daemon is the boot and stop sequence shared by raibroker,
// raifs, raidb, raiworker and raiadmin collect. Start traps
// SIGINT/SIGTERM before anything else and serves the metrics listener
// (/metrics, /healthz, /readyz, optional /debug/pprof); Ship sends
// spans and events to the collector; Ready writes the ready file and
// turns /readyz to 200; Context ends once a signal arrives, after
// /readyz has turned to 503; Close flushes the exporter and releases
// the rest. Each binary keeps its own serve and drain body in between.
// The package registers no flag.
package daemon

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"sync"
	"syscall"

	"rai/internal/broker"
	"rai/internal/brokerd"
	"rai/internal/core"
	"rai/internal/netx"
	"rai/internal/telemetry"
)

// Config carries the values of the flags every daemon declares.
type Config struct {
	Service     string // in rai_build_info, the ready file, the banner and telemetry
	MetricsAddr string // -metrics-addr; empty serves no /metrics and builds no registry
	Pprof       bool   // -pprof: /debug/pprof on the metrics listener
	ReadyFile   string // -ready-file
	Stdout      io.Writer
	Stderr      io.Writer
	Hooks
}

// Hooks let a test drive a daemon's run function in-process; main
// passes the zero value.
type Hooks struct {
	Ready    chan<- string   // receives the address Ready publishes
	Quit     <-chan struct{} // closing it stops the daemon as SIGTERM does
	Draining func()          // runs once /readyz answers 503, before Context ends
}

// Info is the ready file's document. Addr is empty for a daemon without
// a listener of its own (raiworker, collect), MetricsAddr for one run
// without -metrics-addr.
type Info struct {
	Service     string `json:"service"`
	PID         int    `json:"pid"`
	Addr        string `json:"addr,omitempty"`
	MetricsAddr string `json:"metrics_addr,omitempty"`
}

// Daemon is one running process's shared lifecycle.
type Daemon struct {
	Registry *telemetry.Registry // nil without a metrics address
	Tracer   *telemetry.Tracer   // nil until Ship
	Log      *telemetry.Logger   // stderr, and the collector after Ship

	cfg         Config
	health      *telemetry.Health
	mu          sync.Mutex // orders Ready's 200 against the stop's 503
	stopping    bool
	metricsAddr string
	ctx         context.Context
	cancel      context.CancelFunc
	closers     []func()
}

// Start installs the signal handler and, with a metrics address, serves
// the registry. ctx is the process root; the daemon's Context derives
// from it.
func Start(ctx context.Context, cfg Config) (*Daemon, error) {
	ctx, cancel := context.WithCancel(ctx)
	sig, stopSignals := signal.NotifyContext(ctx, os.Interrupt, syscall.SIGTERM)
	d := &Daemon{
		Log:    telemetry.NewLogger(cfg.Service, telemetry.WithLogWriter(cfg.Stderr)),
		cfg:    cfg,
		health: telemetry.NewHealth(),
		ctx:    ctx,
		cancel: cancel,
	}
	d.closers = append(d.closers, func() { cancel(); stopSignals() })
	go d.watch(sig)
	if cfg.MetricsAddr == "" {
		return d, nil
	}
	d.Registry = telemetry.NewRegistry()
	telemetry.RegisterBuildInfo(d.Registry, cfg.Service)
	telemetry.RegisterProcessMetrics(d.Registry)
	mounts := []func(*http.ServeMux){d.health.Mount}
	if cfg.Pprof {
		mounts = append(mounts, mountPprof)
	}
	addr, closeMetrics, err := d.Registry.ServeMetrics(cfg.MetricsAddr, mounts...)
	if err != nil {
		d.Close()
		return nil, fmt.Errorf("metrics listener: %w", err)
	}
	d.metricsAddr = addr
	d.closers = append(d.closers, func() { _ = closeMetrics() })
	fmt.Fprintf(cfg.Stdout, "%s metrics on http://%s/metrics\n", cfg.Service, addr)
	return d, nil
}

// watch turns the first signal or Quit into the stop: readiness drops,
// then Context ends. Close ends it with neither.
func (d *Daemon) watch(sig context.Context) {
	select {
	case <-d.cfg.Quit: // nil outside tests: only a signal stops the daemon
	case <-sig.Done():
	}
	if d.ctx.Err() == nil {
		d.mu.Lock()
		d.stopping = true
		d.health.SetReady(false)
		d.mu.Unlock()
		if d.cfg.Draining != nil {
			d.cfg.Draining()
		}
	}
	d.cancel()
}

// mountPprof serves net/http/pprof on the metrics listener, never on a
// service port.
func mountPprof(mux *http.ServeMux) {
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
}

// Context ends when the daemon begins to stop, after /readyz has turned
// to 503.
func (d *Daemon) Context() context.Context { return d.ctx }

// Dial connects to the broker at addr. The connection closes in Close,
// after the exporter's final flush.
func (d *Daemon) Dial(addr string, policy netx.Policy) (*brokerd.Queue, error) {
	q, err := brokerd.NewQueue(d.ctx, addr, policy)
	if err != nil {
		return nil, err
	}
	d.closers = append(d.closers, func() { _ = q.Close() })
	return q, nil
}

// Ship publishes every span of d.Tracer and event of d.Log on q for the
// collector. The exporter never blocks: a full queue drops and counts.
func (d *Daemon) Ship(q broker.Queue) {
	exp := telemetry.NewExporter(d.ctx, d.cfg.Service, core.ShipTelemetry(q),
		telemetry.WithExportMetrics(d.Registry))
	d.closers = append(d.closers, exp.Close)
	d.Tracer = telemetry.NewTracer(telemetry.WithSpanSink(exp.ExportSpan),
		telemetry.WithTracerInstance(telemetry.NewInstanceID(d.cfg.Service)))
	d.Log = telemetry.NewLogger(d.cfg.Service,
		telemetry.WithLogWriter(d.cfg.Stderr), telemetry.WithLogSink(exp.ExportEvent))
}

// Ready publishes that the daemon serves at addr: /readyz turns to 200,
// then the ready file is written and addr handed to the Ready hook, so
// whoever reads either finds /readyz already answering 200.
func (d *Daemon) Ready(addr string) error {
	d.mu.Lock()
	d.health.SetReady(!d.stopping)
	d.mu.Unlock()
	if d.cfg.ReadyFile != "" {
		info := Info{Service: d.cfg.Service, PID: os.Getpid(), Addr: addr, MetricsAddr: d.metricsAddr}
		if err := writeInfo(d.cfg.ReadyFile, info); err != nil {
			return err
		}
	}
	if d.cfg.Ready != nil {
		select {
		case d.cfg.Ready <- addr:
		case <-d.ctx.Done(): // stopped before the test read it
		}
	}
	return nil
}

// Close releases, last opened first, what Start, Dial and Ship opened.
func (d *Daemon) Close() {
	d.health.SetReady(false)
	for i := len(d.closers) - 1; i >= 0; i-- {
		d.closers[i]()
	}
	d.closers = nil
}

// writeInfo publishes info at path atomically (written beside it, then
// renamed), so a reader sees nothing or the whole document.
func writeInfo(path string, info Info) error {
	data, err := json.Marshal(info)
	if err != nil {
		return err
	}
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, append(data, '\n'), 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

// ReadInfo parses the ready file at path; a missing file's fs error
// tells a poller "not ready yet" from "corrupt".
func ReadInfo(path string) (Info, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return Info{}, err
	}
	var info Info
	if err := json.Unmarshal(data, &info); err != nil {
		return Info{}, fmt.Errorf("ready file: parsing %s: %w", path, err)
	}
	return info, nil
}
