package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"sync"
	"syscall"
	"time"
)

// The binaries the benchmark builds and drives, by cmd/ directory.
var binaries = []string{"rai", "raibroker", "raifs", "raidb", "raiworker", "raiadmin"}

// Daemon layers in boot order. The layer name is what the metrics use;
// raibroker serves the brokerd protocol and the collector is a
// subcommand of raiadmin.
var daemonLayers = []string{"brokerd", "raifs", "raidb", "raiworker", "collector"}

// children tracks every process group the harness has started and not
// yet reaped, so that any exit path can kill what is left.
var children = struct {
	sync.Mutex
	pgids map[int]bool
}{pgids: map[int]bool{}}

func trackChild(pid int, alive bool) {
	children.Lock()
	defer children.Unlock()
	if alive {
		children.pgids[pid] = true
	} else {
		delete(children.pgids, pid)
	}
}

// killStragglers is the last line of defence: run() defers it.
func killStragglers() {
	children.Lock()
	defer children.Unlock()
	for pgid := range children.pgids {
		_ = syscall.Kill(-pgid, syscall.SIGKILL) // already gone is fine
	}
}

// childEnv is what a student's shell or an init script would give the
// program: nothing of the harness's own environment leaks in.
func childEnv(home string) []string {
	return []string{"PATH=" + os.Getenv("PATH"), "HOME=" + home, "TMPDIR=" + home}
}

type daemon struct {
	layer string
	cmd   *exec.Cmd
	log   string
	done  chan struct{} // closed once Wait has returned
}

func (d *daemon) pid() int { return d.cmd.Process.Pid }

// readyInfo is the document a daemon writes to its -ready-file.
type readyInfo struct {
	PID  int    `json:"pid"`
	Addr string `json:"addr"`
}

type cluster struct {
	dir     string
	daemons []*daemon
	tr      *tracer // nil in an untraced round

	broker, fs, db string // the daemons' own addresses (host:port)
}

func (c *cluster) start(layer, bin string, args ...string) (*daemon, error) {
	logPath := filepath.Join(c.dir, layer+".log")
	logFile, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	defer logFile.Close() // the child holds its own descriptor
	cmd := exec.Command(bin, args...)
	cmd.Dir = c.dir
	cmd.Env = childEnv(c.dir)
	cmd.Stdout, cmd.Stderr = logFile, logFile
	cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting %s: %w", layer, err)
	}
	trackChild(cmd.Process.Pid, true)
	d := &daemon{layer: layer, cmd: cmd, log: logPath, done: make(chan struct{})}
	go func() {
		_ = cmd.Wait() // a daemon only ever ends by our SIGKILL or by crashing; awaitReady and stop report either
		trackChild(cmd.Process.Pid, false)
		close(d.done)
	}()
	c.daemons = append(c.daemons, d)
	return d, nil
}

// awaitReady polls for the daemon's ready file and returns the address
// it bound.
func (c *cluster) awaitReady(ctx context.Context, d *daemon, path string) (string, error) {
	deadline := time.After(30 * time.Second)
	tick := time.NewTicker(2 * time.Millisecond)
	defer tick.Stop()
	for {
		if data, err := os.ReadFile(path); err == nil {
			var info readyInfo
			if err := json.Unmarshal(data, &info); err != nil {
				return "", fmt.Errorf("%s ready file: %w", d.layer, err)
			}
			return info.Addr, nil
		}
		select {
		case <-tick.C:
		case <-d.done:
			return "", fmt.Errorf("%s exited before it was ready:\n%s", d.layer, tail(d.log))
		case <-deadline:
			return "", fmt.Errorf("%s not ready after 30s:\n%s", d.layer, tail(d.log))
		case <-ctx.Done():
			return "", ctx.Err()
		}
	}
}

func tail(path string) string {
	data, err := os.ReadFile(path)
	if err != nil {
		return err.Error()
	}
	if len(data) > 2000 {
		data = data[len(data)-2000:]
	}
	return string(bytes.TrimSpace(data))
}

// boot starts the deployment under test: one of each daemon on
// loopback, memory backends, telemetry shipped everywhere, one worker
// with two slots. In a traced round each daemon is told its peers'
// proxy addresses, one listener per calling layer.
func boot(ctx context.Context, dir string, bins map[string]string, keys string, tr *tracer) (*cluster, error) {
	c := &cluster{dir: dir, tr: tr}
	ready := func(layer string) string { return filepath.Join(dir, layer+".ready") }
	var err error
	up := func(layer, bin string, args ...string) (string, error) {
		d, err := c.start(layer, bins[bin], append(args, "-ready-file", ready(layer))...)
		if err != nil {
			return "", err
		}
		return c.awaitReady(ctx, d, ready(layer))
	}
	if c.broker, err = up("brokerd", "raibroker",
		"-addr", "127.0.0.1:0", "-metrics-addr", "127.0.0.1:0"); err != nil {
		return c, err
	}
	brokerFor := func(caller string) (string, error) { return c.tr.tcpEdge("brokerd.from_"+caller, -1, c.broker) }
	addr, err := brokerFor("raifs")
	if err != nil {
		return c, err
	}
	if c.fs, err = up("raifs", "raifs",
		"-addr", "127.0.0.1:0", "-metrics-addr", "127.0.0.1:0", "-broker", addr); err != nil {
		return c, err
	}
	if addr, err = brokerFor("raidb"); err != nil {
		return c, err
	}
	if c.db, err = up("raidb", "raidb",
		"-addr", "127.0.0.1:0", "-metrics-addr", "127.0.0.1:0", "-broker", addr); err != nil {
		return c, err
	}
	if addr, err = brokerFor("raiworker"); err != nil {
		return c, err
	}
	fsAddr, err := c.tr.httpEdge("raifs.from_raiworker", -1, c.fs)
	if err != nil {
		return c, err
	}
	dbAddr, err := c.tr.httpEdge("raidb.from_raiworker", -1, c.db)
	if err != nil {
		return c, err
	}
	if _, err = up("raiworker", "raiworker",
		"-broker", addr, "-fs", "http://"+fsAddr, "-db", "http://"+dbAddr, "-keys", keys,
		"-concurrency", "2", "-rate-limit", "1ms", "-full-images", "12",
		"-metrics-addr", "127.0.0.1:0"); err != nil {
		return c, err
	}
	if addr, err = brokerFor("collector"); err != nil {
		return c, err
	}
	if dbAddr, err = c.tr.httpEdge("raidb.from_collector", -1, c.db); err != nil {
		return c, err
	}
	_, err = up("collector", "raiadmin", "collect",
		"-broker", addr, "-db", "http://"+dbAddr, "-metrics-addr", "127.0.0.1:0")
	return c, err
}

// stop kills every daemon's process group and waits for each to end.
func (c *cluster) stop() {
	for i := len(c.daemons) - 1; i >= 0; i-- {
		_ = syscall.Kill(-c.daemons[i].pid(), syscall.SIGKILL) // already gone is fine
	}
	for _, d := range c.daemons {
		<-d.done
	}
}

// crashed names a daemon that ended on its own, with its last words.
func (c *cluster) crashed() error {
	for _, d := range c.daemons {
		select {
		case <-d.done:
			return fmt.Errorf("%s died during the round:\n%s", d.layer, tail(d.log))
		default:
		}
	}
	return nil
}

// perDaemon reads one /proc number of every daemon. A daemon whose
// /proc entry is gone has died, and its last words are the error.
func (c *cluster) perDaemon(read func(pid int) (int64, error)) (map[string]int64, error) {
	out := map[string]int64{}
	for _, d := range c.daemons {
		v, err := read(d.pid())
		if err != nil {
			if crash := c.crashed(); crash != nil {
				return nil, crash
			}
			return nil, fmt.Errorf("%s: %w", d.layer, err)
		}
		out[d.layer] = v
	}
	return out, nil
}

// cpuTicks is every daemon's utime+stime in clock ticks.
func (c *cluster) cpuTicks() (map[string]int64, error) { return c.perDaemon(readCPUTicks) }

const (
	drainQuiet = 300 * time.Millisecond
	// drainCap is short because the driver's time budget is: under
	// saturation the collector's backlog outlasts any cap we can afford,
	// so the books close one second after the window and say so.
	drainCap = time.Second
)

// drain waits until no daemon has accrued a CPU tick for drainQuiet, so
// that work the window caused but the student did not wait for
// (telemetry persistence, above all) is on the books before they are
// read. It reports how long that took and whether it gave up at drainCap.
func (c *cluster) drain(ctx context.Context) (time.Duration, bool, error) {
	begin := time.Now()
	last, err := c.cpuTicks()
	if err != nil {
		return 0, false, err
	}
	quietSince := begin
	tick := time.NewTicker(50 * time.Millisecond)
	defer tick.Stop()
	for {
		select {
		case <-ctx.Done():
			return 0, false, ctx.Err()
		case now := <-tick.C:
			cur, err := c.cpuTicks()
			if err != nil {
				return 0, false, err
			}
			for layer, t := range cur {
				if t != last[layer] {
					quietSince = now
				}
			}
			last = cur
			if now.Sub(quietSince) >= drainQuiet {
				return quietSince.Sub(begin), false, nil
			}
			if now.Sub(begin) >= drainCap {
				return now.Sub(begin), true, nil
			}
		}
	}
}
