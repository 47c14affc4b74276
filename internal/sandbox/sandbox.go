// Package sandbox implements the container runtime RAI workers use to
// isolate student code (paper §V "Container Execution"): a container is
// created per job from a whitelisted base image, given read-only /src
// and writable /build mounts plus the course /data volume (the
// nvidia-docker CUDA volume analogue), and constrained exactly as the
// paper describes — no network access, 8 GB of memory, and a maximum
// lifetime of one hour, all adjustable through the worker configuration.
package sandbox

import (
	"errors"
	"fmt"
	"io"
	"sync"
	"time"

	"rai/internal/registry"
	"rai/internal/shell"
	"rai/internal/vfs"
)

// Paper §V defaults ("These limits can be changed using the RAI worker
// configuration file").
const (
	DefaultMemoryBytes = 8 << 30
	DefaultLifetime    = time.Hour
	DefaultDiskBytes   = 16 << 30
)

// Errors reported by the runtime.
var (
	ErrLifetimeExceeded = errors.New("sandbox: container lifetime exceeded")
	ErrMemoryExceeded   = errors.New("sandbox: container memory limit exceeded")
	ErrDestroyed        = errors.New("sandbox: container destroyed")
	ErrNoNetwork        = errors.New("sandbox: network access is disabled")
)

// Mount binds a directory from another filesystem into the container.
type Mount struct {
	Source     *vfs.FS
	SourcePath string
	Target     string
	ReadOnly   bool
}

// Config describes a container to start.
type Config struct {
	// Image is the whitelisted base image reference (rai-build.yml
	// "image:" key).
	Image string
	// Mounts lists bind mounts (/src read-only, /build writable, /data).
	Mounts []Mount
	// WorkDir is the working directory for commands (default /build).
	WorkDir string
	// MemoryBytes caps modeled memory use (default 8 GiB).
	MemoryBytes int64
	// Lifetime caps accumulated wall time (default 1 h).
	Lifetime time.Duration
	// DiskBytes caps container-local writes (default 16 GiB).
	DiskBytes int64
	// EnableNetwork turns networking on (always off in the course).
	EnableNetwork bool
	// Stdout and Stderr receive command output (the worker pipes them to
	// the log topic).
	Stdout, Stderr io.Writer
	// Cost overrides the default execution cost model.
	Cost shell.CostModel
}

// Runtime starts containers, pulling images through a worker-local cache.
type Runtime struct {
	cache *registry.Cache
	// decoded is the one cache of decoded course files that every
	// container it starts shares: the /data volume is the same for all
	// of them.
	decoded shell.DecodeCache
}

// NewRuntime returns a runtime pulling from reg.
func NewRuntime(reg *registry.Registry) *Runtime {
	return &Runtime{cache: registry.NewCache(reg)}
}

// Container is one sandboxed execution environment.
type Container struct {
	fs     *vfs.FS
	sh     *shell.Shell
	cfg    Config
	mu     sync.Mutex
	used   time.Duration // accumulated wall time
	dead   bool
	reason error
	// PullLatency is the modeled time spent fetching the image before
	// the container could start (zero when cached, paper §V step 3).
	PullLatency time.Duration
}

// Start creates a container: resolves and pulls the image, assembles the
// filesystem from the mounts, and prepares the shell.
func (rt *Runtime) Start(cfg Config) (*Container, error) {
	pullLat, err := rt.cache.Pull(cfg.Image)
	if err != nil {
		return nil, err
	}
	if cfg.MemoryBytes == 0 {
		cfg.MemoryBytes = DefaultMemoryBytes
	}
	if cfg.Lifetime == 0 {
		cfg.Lifetime = DefaultLifetime
	}
	if cfg.DiskBytes == 0 {
		cfg.DiskBytes = DefaultDiskBytes
	}
	if cfg.WorkDir == "" {
		cfg.WorkDir = "/build"
	}
	if cfg.Stdout == nil {
		cfg.Stdout = io.Discard
	}
	if cfg.Stderr == nil {
		cfg.Stderr = io.Discard
	}
	fs := vfs.NewWithQuota(cfg.DiskBytes)
	if err := fs.MkdirAll(cfg.WorkDir); err != nil {
		return nil, err
	}
	for _, m := range cfg.Mounts {
		if err := fs.Mount(m.Target, m.Source, m.SourcePath, m.ReadOnly); err != nil {
			return nil, fmt.Errorf("sandbox: mounting %s: %w", m.Target, err)
		}
	}
	sh := shell.New(fs, cfg.WorkDir, cfg.Stdout, cfg.Stderr, cfg.Cost)
	sh.Decoded = &rt.decoded
	c := &Container{fs: fs, sh: sh, cfg: cfg, PullLatency: pullLat}
	c.registerNetworkStubs()
	return c, nil
}

// registerNetworkStubs installs curl/wget/ping programs that fail when
// networking is disabled, demonstrating the isolation the paper requires.
func (c *Container) registerNetworkStubs() {
	netProg := func(name string) shell.Program {
		return func(sh *shell.Shell, argv []string, res *shell.Result) error {
			if !c.cfg.EnableNetwork {
				fmt.Fprintf(sh.Stderr, "%s: could not resolve host: Network is unreachable\n", name)
				return &shell.ExitError{Code: 6, Msg: ErrNoNetwork.Error()}
			}
			fmt.Fprintf(sh.Stdout, "%s: ok (network enabled by worker config)\n", name)
			return nil
		}
	}
	for _, name := range []string{"curl", "wget", "ping"} {
		c.sh.Register(name, netProg(name))
	}
}

// FS exposes the container filesystem (the worker reads /build from it
// to upload results).
func (c *Container) FS() *vfs.FS { return c.fs }

// Exec runs one build command. The container dies when a command pushes
// accumulated wall time past the lifetime or exceeds the memory limit;
// the error then wraps the corresponding sentinel.
func (c *Container) Exec(cmdline string) (shell.Result, error) {
	c.mu.Lock()
	if c.dead {
		reason := c.reason
		c.mu.Unlock()
		if reason == nil {
			reason = ErrDestroyed
		}
		return shell.Result{ExitCode: 137}, reason
	}
	c.mu.Unlock()

	res, err := c.sh.Run(cmdline)

	c.mu.Lock()
	defer c.mu.Unlock()
	c.used += res.Wall
	if res.MemBytes > c.cfg.MemoryBytes {
		c.dead = true
		c.reason = fmt.Errorf("%w: %d bytes requested, limit %d", ErrMemoryExceeded, res.MemBytes, c.cfg.MemoryBytes)
		fmt.Fprintf(c.cfg.Stderr, "Killed (container exceeded %d byte memory limit)\n", c.cfg.MemoryBytes)
		res.ExitCode = 137
		return res, c.reason
	}
	if c.used > c.cfg.Lifetime {
		c.dead = true
		c.reason = fmt.Errorf("%w: used %v of %v", ErrLifetimeExceeded, c.used, c.cfg.Lifetime)
		// Clamp the overshoot: the reaper fires at the limit.
		over := c.used - c.cfg.Lifetime
		res.Wall -= over
		c.used = c.cfg.Lifetime
		fmt.Fprintf(c.cfg.Stderr, "Killed (container exceeded %v lifetime)\n", c.cfg.Lifetime)
		res.ExitCode = 137
		return res, c.reason
	}
	return res, err
}

// Destroy tears the container down ("A new container is started for each
// job and is terminated after completion", §V). Idempotent.
func (c *Container) Destroy() {
	c.mu.Lock()
	c.dead = true
	if c.reason == nil {
		c.reason = ErrDestroyed
	}
	c.mu.Unlock()
}
