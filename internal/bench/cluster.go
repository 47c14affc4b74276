package bench

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"time"

	"rai/internal/auth"
	"rai/internal/clock"
)

// daemonBinaries are the commands a cluster boots, in dependency order.
var daemonBinaries = []string{"raibroker", "raifs", "raidb", "raiworker", "raiadmin"}

// ClusterConfig describes the loopback deployment a benchmark boots.
type ClusterConfig struct {
	// Bin maps command name to binary path (from BuildBinaries or -bin).
	Bin map[string]string
	// Dir is the run's scratch directory (ready files, logs, keys.json).
	Dir string
	// Workers and WorkerConcurrency shape the execution fleet.
	Workers           int
	WorkerConcurrency int
	// Seed and FullImages configure the workers' course dataset; small
	// image counts keep real-clock job execution in the milliseconds.
	Seed       uint64
	FullImages int
	// RateLimit is the per-user submission spacing enforced by workers.
	// The bench drives each student in a closed loop, so this must stay
	// far below the think time (the paper's 30 s default would serialize
	// the whole run).
	RateLimit time.Duration
	// Pprof mounts /debug/pprof on every daemon's metrics address so the
	// harness can capture profiles mid-load.
	Pprof bool
	// ReadyTimeout bounds each daemon's boot (default 30 s).
	ReadyTimeout time.Duration
	// TraceSample, when in (0,1), is passed to every worker as the
	// head-sampling fallback rate for orphan traces (the clients' own
	// verdicts ride the job envelopes regardless).
	TraceSample float64
	// TailLinger/TailKeep configure the collector's tail retention
	// (linger 0 = off, persist everything immediately).
	TailLinger time.Duration
	TailKeep   float64
	// Retain turns on the collector's TTL sweep over persisted traces
	// and events (0 = keep forever).
	Retain time.Duration
	// SLOScrape points the collector's SLO engine at every daemon's
	// metrics endpoint, exporting rai_slo_* gauges on the collector.
	SLOScrape   bool
	SLOInterval time.Duration
}

// Cluster is a running loopback deployment.
type Cluster struct {
	BrokerAddr string
	FSURL      string
	DBURL      string
	// MetricsURLs maps daemon instance name to its /metrics URL.
	MetricsURLs map[string]string
	KeysPath    string

	procs []*Proc
	clk   clock.Clock
}

// BuildBinaries compiles the daemon commands into outDir with the
// local go toolchain and returns name → path. moduleRoot is the
// directory holding go.mod; progress goes to logTo.
func BuildBinaries(ctx context.Context, moduleRoot, outDir string, logTo io.Writer) (map[string]string, error) {
	bins := map[string]string{}
	for _, name := range daemonBinaries {
		out, err := BuildBinary(ctx, moduleRoot, outDir, name, logTo)
		if err != nil {
			return nil, err
		}
		bins[name] = out
	}
	return bins, nil
}

// BuildBinary compiles one daemon command into outDir and returns its
// path.
func BuildBinary(ctx context.Context, moduleRoot, outDir, name string, logTo io.Writer) (string, error) {
	out := filepath.Join(outDir, name)
	fmt.Fprintf(logTo, "building %s\n", name)
	cmd := exec.CommandContext(ctx, "go", "build", "-o", out, "./cmd/"+name)
	cmd.Dir = moduleRoot
	if b, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("bench: go build %s: %v\n%s", name, err, b)
	}
	return out, nil
}

// FindModuleRoot walks up from dir to the directory containing go.mod.
func FindModuleRoot(dir string) (string, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(abs, "go.mod")); err == nil {
			return abs, nil
		}
		parent := filepath.Dir(abs)
		if parent == abs {
			return "", fmt.Errorf("bench: no go.mod above %s", dir)
		}
		abs = parent
	}
}

// StartCluster boots broker → storage → collector → workers over
// loopback, every listener on ":0", and waits for each daemon's ready
// file. creds become keys.json (the workers' auth registry and the
// load generator's identities). On error every started child is
// stopped.
func StartCluster(ctx context.Context, clk clock.Clock, cfg ClusterConfig, creds []auth.Credentials) (*Cluster, error) {
	if clk == nil {
		clk = clock.Real{}
	}
	if cfg.Workers <= 0 {
		cfg.Workers = 1
	}
	if cfg.WorkerConcurrency <= 0 {
		cfg.WorkerConcurrency = 1
	}
	if cfg.FullImages <= 0 {
		cfg.FullImages = 12
	}
	if cfg.RateLimit <= 0 {
		cfg.RateLimit = time.Millisecond
	}
	if cfg.ReadyTimeout <= 0 {
		cfg.ReadyTimeout = 30 * time.Second
	}
	for _, name := range daemonBinaries {
		if cfg.Bin[name] == "" {
			return nil, fmt.Errorf("bench: no binary for %s", name)
		}
	}
	c := &Cluster{MetricsURLs: map[string]string{}, clk: clk}
	ok := false
	defer func() {
		if !ok {
			c.Stop()
		}
	}()

	keysPath := filepath.Join(cfg.Dir, "keys.json")
	keysData, err := json.Marshal(creds)
	if err != nil {
		return nil, fmt.Errorf("bench: %w", err)
	}
	if err := os.WriteFile(keysPath, keysData, 0o600); err != nil {
		return nil, fmt.Errorf("bench: %w", err)
	}
	c.KeysPath = keysPath

	pprofArgs := func(base []string) []string {
		if cfg.Pprof {
			return append(base, "-pprof")
		}
		return base
	}
	start := func(name string, args []string) (*Proc, error) {
		p, err := startProc(name, cfg.Bin[cmdOf(name)], args, cfg.Dir)
		if err != nil {
			return nil, err
		}
		c.procs = append(c.procs, p)
		return p, nil
	}
	ready := func(p *Proc, file string) (addr, metrics string, err error) {
		info, err := awaitReady(ctx, clk, p, filepath.Join(cfg.Dir, file), cfg.ReadyTimeout)
		if err != nil {
			return "", "", err
		}
		if info.MetricsAddr != "" {
			c.MetricsURLs[p.Name] = "http://" + info.MetricsAddr + "/metrics"
		}
		return info.Addr, info.MetricsAddr, nil
	}

	p, err := start("raibroker", pprofArgs([]string{
		"-addr", "127.0.0.1:0", "-metrics-addr", "127.0.0.1:0",
		"-ready-file", filepath.Join(cfg.Dir, "raibroker.ready")}))
	if err != nil {
		return nil, err
	}
	if c.BrokerAddr, _, err = ready(p, "raibroker.ready"); err != nil {
		return nil, err
	}

	p, err = start("raifs", pprofArgs([]string{
		"-addr", "127.0.0.1:0", "-metrics-addr", "127.0.0.1:0",
		"-broker", c.BrokerAddr,
		"-ready-file", filepath.Join(cfg.Dir, "raifs.ready")}))
	if err != nil {
		return nil, err
	}
	fsAddr, _, err := ready(p, "raifs.ready")
	if err != nil {
		return nil, err
	}
	c.FSURL = "http://" + fsAddr

	p, err = start("raidb", pprofArgs([]string{
		"-addr", "127.0.0.1:0", "-metrics-addr", "127.0.0.1:0",
		"-broker", c.BrokerAddr,
		"-ready-file", filepath.Join(cfg.Dir, "raidb.ready")}))
	if err != nil {
		return nil, err
	}
	dbAddr, _, err := ready(p, "raidb.ready")
	if err != nil {
		return nil, err
	}
	c.DBURL = "http://" + dbAddr

	// Workers boot before the collector so its -slo-scrape flag can list
	// their metrics endpoints; telemetry published in the gap sits in the
	// broker's topic backlog until the collector subscribes.
	for i := 0; i < cfg.Workers; i++ {
		name := fmt.Sprintf("raiworker-%d", i+1)
		readyFile := name + ".ready"
		workerArgs := []string{
			"-broker", c.BrokerAddr, "-fs", c.FSURL, "-db", c.DBURL,
			"-keys", keysPath, "-id", name,
			"-concurrency", fmt.Sprint(cfg.WorkerConcurrency),
			"-rate-limit", cfg.RateLimit.String(),
			"-seed", fmt.Sprint(cfg.Seed),
			"-full-images", fmt.Sprint(cfg.FullImages),
			"-metrics-addr", "127.0.0.1:0",
			"-ready-file", filepath.Join(cfg.Dir, readyFile)}
		if cfg.TraceSample > 0 && cfg.TraceSample < 1 {
			workerArgs = append(workerArgs, "-trace-sample", fmt.Sprint(cfg.TraceSample))
		}
		p, err := start(name, pprofArgs(workerArgs))
		if err != nil {
			return nil, err
		}
		if _, _, err = ready(p, readyFile); err != nil {
			return nil, err
		}
	}

	collectArgs := []string{"collect",
		"-broker", c.BrokerAddr, "-db", c.DBURL,
		"-metrics-addr", "127.0.0.1:0",
		"-ready-file", filepath.Join(cfg.Dir, "collector.ready")}
	if cfg.TailLinger > 0 {
		collectArgs = append(collectArgs,
			"-tail-linger", cfg.TailLinger.String(),
			"-tail-keep", fmt.Sprint(cfg.TailKeep))
	}
	if cfg.Retain > 0 {
		collectArgs = append(collectArgs, "-retain", cfg.Retain.String())
	}
	if cfg.SLOScrape {
		urls := ""
		for _, u := range c.MetricsURLs {
			if urls != "" {
				urls += ","
			}
			urls += u
		}
		interval := cfg.SLOInterval
		if interval <= 0 {
			interval = time.Second
		}
		collectArgs = append(collectArgs, "-slo-scrape", urls, "-slo-interval", interval.String())
	}
	p, err = start("collector", collectArgs)
	if err != nil {
		return nil, err
	}
	if _, _, err = ready(p, "collector.ready"); err != nil {
		return nil, err
	}
	ok = true
	return c, nil
}

// cmdOf maps an instance name (raiworker-2, collector) to its binary.
func cmdOf(name string) string {
	switch {
	case name == "collector":
		return "raiadmin"
	case len(name) > len("raiworker") && name[:len("raiworker")] == "raiworker":
		return "raiworker"
	default:
		return name
	}
}

// Procs exposes the managed children (for crash checks and pprof
// target selection).
func (c *Cluster) Procs() []*Proc { return c.procs }

// Stop shuts the cluster down in reverse boot order: workers drain
// in-flight jobs before the broker goes away.
func (c *Cluster) Stop() {
	for i := len(c.procs) - 1; i >= 0; i-- {
		c.procs[i].Stop(c.clk, 10*time.Second)
	}
}
