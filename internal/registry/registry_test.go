package registry

import (
	"errors"
	"testing"
	"time"
)

func TestParseRef(t *testing.T) {
	cases := []struct {
		in, repo, tag string
		ok            bool
	}{
		{"webgpu/rai:root", "webgpu/rai", "root", true},
		{"webgpu/rai", "webgpu/rai", "latest", true},
		{"alpine:3.4", "alpine", "3.4", true},
		{"", "", "", false},
		{":root", "", "", false},
		{"repo:ta/g", "", "", false},
		{"has space:x", "", "", false},
	}
	for _, tc := range cases {
		repo, tag, err := ParseRef(tc.in)
		if tc.ok && (err != nil || repo != tc.repo || tag != tc.tag) {
			t.Errorf("ParseRef(%q) = %q,%q,%v", tc.in, repo, tag, err)
		}
		if !tc.ok && !errors.Is(err, ErrBadRef) {
			t.Errorf("ParseRef(%q) err = %v, want ErrBadRef", tc.in, err)
		}
	}
}

func TestResolveWhitelist(t *testing.T) {
	r := New()
	r.Add(Image{Ref: "webgpu/rai:root", SizeBytes: 1})
	r.Add(Image{Ref: "evil/miner:latest", SizeBytes: 1})
	r.Whitelist("webgpu/rai:root")

	if _, err := r.Resolve("webgpu/rai:root"); err != nil {
		t.Errorf("whitelisted image rejected: %v", err)
	}
	if _, err := r.Resolve("evil/miner"); !errors.Is(err, ErrNotWhitelisted) {
		t.Errorf("non-whitelisted image: %v", err)
	}
	if _, err := r.Resolve("missing/image:x"); !errors.Is(err, ErrUnknownImage) {
		t.Errorf("unknown image: %v", err)
	}
	if _, err := r.Resolve("bad ref"); !errors.Is(err, ErrBadRef) {
		t.Errorf("bad ref: %v", err)
	}
}

func TestCourseRegistryDefaults(t *testing.T) {
	r := NewCourseRegistry()
	img, err := r.Resolve("webgpu/rai:root")
	if err != nil {
		t.Fatal(err)
	}
	if img.DeviceSpeedup <= 1 {
		t.Errorf("default image speedup = %v, want GPU-class", img.DeviceSpeedup)
	}
	has := func(tc string) bool {
		for _, x := range img.Toolchains {
			if x == tc {
				return true
			}
		}
		return false
	}
	// Paper §V: latest CUDA toolkit with CUDNN plus TensorFlow and Torch7.
	for _, tc := range []string{"cuda-8.0", "cudnn-5", "tensorflow", "torch7", "nvprof"} {
		if !has(tc) {
			t.Errorf("default image missing toolchain %s", tc)
		}
	}
}

func TestCachePullLatencyOnce(t *testing.T) {
	r := NewCourseRegistry()
	c := NewCache(r)
	lat, err := c.Pull("webgpu/rai:root")
	if err != nil {
		t.Fatal(err)
	}
	img, err := r.Resolve("webgpu/rai:root")
	if err != nil {
		t.Fatal(err)
	}
	if lat <= 0 {
		t.Errorf("first pull latency = %v, want > 0", lat)
	}
	wantLat := time.Duration(float64(img.SizeBytes) / float64(c.Bandwidth) * float64(time.Second))
	if lat != wantLat {
		t.Errorf("pull latency = %v, want %v", lat, wantLat)
	}
	lat2, err := c.Pull("webgpu/rai:root")
	if err != nil || lat2 != 0 {
		t.Errorf("second pull = %v, %v; want cached (0 latency)", lat2, err)
	}
}

func TestCachePullRejectsNonWhitelisted(t *testing.T) {
	r := New()
	r.Add(Image{Ref: "evil/miner:latest"})
	c := NewCache(r)
	if _, err := c.Pull("evil/miner:latest"); !errors.Is(err, ErrNotWhitelisted) {
		t.Errorf("Pull(non-whitelisted) = %v", err)
	}
}

func TestAddCanonicalizesTag(t *testing.T) {
	r := New()
	r.Add(Image{Ref: "plain/repo"})
	r.Whitelist("plain/repo:latest")
	if _, err := r.Resolve("plain/repo:latest"); err != nil {
		t.Errorf("canonical tag lookup: %v", err)
	}
	if _, err := r.Resolve("plain/repo"); err != nil {
		t.Errorf("default tag lookup: %v", err)
	}
}
