package sandbox

import (
	"bytes"
	"errors"
	"strings"
	"testing"
	"time"

	"rai/internal/cnn"
	"rai/internal/project"
	"rai/internal/registry"
	"rai/internal/vfs"
)

// hostFS builds the worker-side filesystems: student project and the
// course data volume.
func hostFS(t *testing.T, spec project.Spec) (src, data *vfs.FS) {
	t.Helper()
	src = vfs.New()
	if err := project.WriteTo(src, "/job/src", spec); err != nil {
		t.Fatal(err)
	}
	data = vfs.New()
	nw := cnn.NewNetwork(408)
	model, _ := nw.SaveModel()
	data.WriteFile("/data/model.hdf5", model)
	ds, _ := cnn.SynthesizeDataset(nw, 5, 10)
	blob, _ := ds.Encode()
	data.WriteFile("/data/test10.hdf5", blob)
	return src, data
}

func startContainer(t *testing.T, spec project.Spec, mutate func(*Config)) (*Container, *bytes.Buffer, *bytes.Buffer) {
	t.Helper()
	src, data := hostFS(t, spec)
	rt := NewRuntime(registry.NewCourseRegistry())
	var out, errb bytes.Buffer
	cfg := Config{
		Image: "webgpu/rai:root",
		Mounts: []Mount{
			{Source: src, SourcePath: "/job/src", Target: "/src", ReadOnly: true},
			{Source: data, SourcePath: "/data", Target: "/data", ReadOnly: true},
		},
		Stdout: &out,
		Stderr: &errb,
	}
	if mutate != nil {
		mutate(&cfg)
	}
	c, err := rt.Start(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Destroy)
	return c, &out, &errb
}

func TestFullBuildInContainer(t *testing.T) {
	c, out, errb := startContainer(t, project.Spec{Impl: cnn.ImplIm2col, Team: "alpha"}, nil)
	for _, cmd := range []string{
		`echo "Building project"`,
		"cmake /src",
		"make",
		"./ece408 /data/test10.hdf5 /data/model.hdf5",
	} {
		if _, err := c.Exec(cmd); err != nil {
			t.Fatalf("%q: %v\nstderr: %s", cmd, err, errb.String())
		}
	}
	if !strings.Contains(out.String(), "Correctness: 1.0000") {
		t.Errorf("output:\n%s", out.String())
	}
	// The build directory holds the produced binary; /src stayed intact.
	if !c.FS().Exists("/build/ece408") {
		t.Error("binary missing from /build")
	}
	if c.used <= 0 {
		t.Error("no wall time accumulated")
	}
}

func TestSrcMountIsReadOnly(t *testing.T) {
	c, _, _ := startContainer(t, project.Spec{Impl: cnn.ImplTiled}, nil)
	if err := c.FS().WriteFile("/src/hack.txt", []byte("x")); !errors.Is(err, vfs.ErrReadOnly) {
		t.Fatalf("write to /src: %v", err)
	}
}

func TestNetworkDisabled(t *testing.T) {
	c, _, errb := startContainer(t, project.Spec{Impl: cnn.ImplTiled}, nil)
	res, err := c.Exec("curl http://example.com/exfiltrate")
	if err == nil || res.ExitCode != 6 {
		t.Fatalf("curl in no-net container: %v %+v", err, res)
	}
	if !strings.Contains(errb.String(), "Network is unreachable") {
		t.Errorf("stderr = %q", errb.String())
	}
	// wget and ping are stubbed the same way.
	if _, err := c.Exec("wget http://example.com"); err == nil {
		t.Error("wget succeeded")
	}
}

func TestNetworkEnabledByConfig(t *testing.T) {
	c, out, _ := startContainer(t, project.Spec{Impl: cnn.ImplTiled}, func(cfg *Config) {
		cfg.EnableNetwork = true
	})
	if _, err := c.Exec("curl http://example.com"); err != nil {
		t.Fatalf("curl with network enabled: %v", err)
	}
	if !strings.Contains(out.String(), "ok") {
		t.Errorf("output = %q", out.String())
	}
}

func TestLifetimeLimitKillsContainer(t *testing.T) {
	c, _, errb := startContainer(t, project.Spec{Impl: cnn.ImplTiled}, func(cfg *Config) {
		cfg.Lifetime = 10 * time.Second
	})
	if _, err := c.Exec("sleep 9"); err != nil {
		t.Fatal(err)
	}
	res, err := c.Exec("sleep 5")
	if !errors.Is(err, ErrLifetimeExceeded) {
		t.Fatalf("over-lifetime exec: %v", err)
	}
	if res.ExitCode != 137 {
		t.Errorf("exit code = %d", res.ExitCode)
	}
	if c.used != 10*time.Second {
		t.Errorf("Used = %v, want clamped to 10s", c.used)
	}
	if !strings.Contains(errb.String(), "lifetime") {
		t.Errorf("stderr = %q", errb.String())
	}
	// Dead container rejects further commands.
	if _, err := c.Exec("echo still there"); !errors.Is(err, ErrLifetimeExceeded) {
		t.Errorf("exec after death: %v", err)
	}
}

func TestHangingJobIsReaped(t *testing.T) {
	c, _, _ := startContainer(t, project.Spec{Impl: cnn.ImplIm2col, Bug: "hang"}, func(cfg *Config) {
		cfg.Lifetime = time.Hour
	})
	c.Exec("cmake /src")
	c.Exec("make")
	_, err := c.Exec("./ece408 /data/test10.hdf5 /data/model.hdf5")
	if !errors.Is(err, ErrLifetimeExceeded) {
		t.Fatalf("hanging kernel: %v", err)
	}
	if c.used > time.Hour {
		t.Errorf("Used = %v, want clamped to the 1h lifetime", c.used)
	}
}

func TestMemoryLimitKillsContainer(t *testing.T) {
	c, _, errb := startContainer(t, project.Spec{Impl: cnn.ImplIm2col, Bug: "oom"}, nil)
	c.Exec("cmake /src")
	c.Exec("make")
	res, err := c.Exec("./ece408 /data/test10.hdf5 /data/model.hdf5")
	if !errors.Is(err, ErrMemoryExceeded) {
		t.Fatalf("oom kernel: %v", err)
	}
	if res.ExitCode != 137 {
		t.Errorf("exit code = %d", res.ExitCode)
	}
	if !strings.Contains(errb.String(), "memory limit") {
		t.Errorf("stderr = %q", errb.String())
	}
}

func TestNormalRunFitsDefaultMemory(t *testing.T) {
	c, _, _ := startContainer(t, project.Spec{Impl: cnn.ImplIm2col}, nil)
	c.Exec("cmake /src")
	c.Exec("make")
	if _, err := c.Exec("./ece408 /data/test10.hdf5 /data/model.hdf5"); err != nil {
		t.Fatalf("normal run killed: %v", err)
	}
}

func TestImageWhitelistEnforced(t *testing.T) {
	rt := NewRuntime(registry.NewCourseRegistry())
	_, err := rt.Start(Config{Image: "evil/botnet:latest"})
	if !errors.Is(err, registry.ErrUnknownImage) && !errors.Is(err, registry.ErrNotWhitelisted) {
		t.Fatalf("non-whitelisted image: %v", err)
	}
}

func TestPullLatencyOnlyFirstContainer(t *testing.T) {
	src, data := hostFS(t, project.Spec{Impl: cnn.ImplTiled})
	rt := NewRuntime(registry.NewCourseRegistry())
	cfg := Config{
		Image: "webgpu/rai:root",
		Mounts: []Mount{
			{Source: src, SourcePath: "/job/src", Target: "/src", ReadOnly: true},
			{Source: data, SourcePath: "/data", Target: "/data", ReadOnly: true},
		},
	}
	c1, err := rt.Start(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c1.Destroy()
	if c1.PullLatency <= 0 {
		t.Error("first container had no pull latency")
	}
	c2, err := rt.Start(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Destroy()
	if c2.PullLatency != 0 {
		t.Errorf("second container pull latency = %v, want 0 (cached)", c2.PullLatency)
	}
}

// TestContainersShareDecodeCache runs the graded step in two containers
// of one runtime: both decode through the runtime's one cache, so the
// course model and dataset are decoded once between them.
func TestContainersShareDecodeCache(t *testing.T) {
	src, data := hostFS(t, project.Spec{Impl: cnn.ImplIm2col})
	rt := NewRuntime(registry.NewCourseRegistry())
	cfg := Config{
		Image: "webgpu/rai:root",
		Mounts: []Mount{
			{Source: src, SourcePath: "/job/src", Target: "/src", ReadOnly: true},
			{Source: data, SourcePath: "/data", Target: "/data", ReadOnly: true},
		},
	}
	for i := 0; i < 2; i++ {
		c, err := rt.Start(cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Destroy()
		for _, cmd := range []string{"cmake /src", "make", "./ece408 /data/test10.hdf5 /data/model.hdf5"} {
			if _, err := c.Exec(cmd); err != nil {
				t.Fatalf("%s: %v", cmd, err)
			}
		}
		if c.sh.Decoded != &rt.decoded {
			t.Fatalf("container %d decodes through a cache of its own", i)
		}
	}
}

func TestDiskQuota(t *testing.T) {
	c, _, _ := startContainer(t, project.Spec{Impl: cnn.ImplTiled}, func(cfg *Config) {
		cfg.DiskBytes = 1024
	})
	err := c.FS().WriteFile("/build/big.bin", make([]byte, 4096))
	if !errors.Is(err, vfs.ErrQuota) {
		t.Fatalf("over-quota write: %v", err)
	}
}

func TestBadMountFails(t *testing.T) {
	rt := NewRuntime(registry.NewCourseRegistry())
	_, err := rt.Start(Config{
		Image:  "webgpu/rai:root",
		Mounts: []Mount{{Source: vfs.New(), SourcePath: "/missing", Target: "/src", ReadOnly: true}},
	})
	if err == nil {
		t.Fatal("mount of missing source succeeded")
	}
}
