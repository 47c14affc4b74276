// Package registry models the Docker image registry and the whitelist of
// base images students may select in rai-build.yml ("Students can choose
// from a whitelist of base images", paper §V). Workers consult it before
// starting a container and "pull" images they do not have locally, with
// a pull latency model so simulations account for first-use delay.
package registry

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"time"
)

// Errors reported by the registry.
var (
	ErrNotWhitelisted = errors.New("registry: image not on the course whitelist")
	ErrUnknownImage   = errors.New("registry: unknown image")
	ErrBadRef         = errors.New("registry: malformed image reference")
)

// Image describes a base image students can run on.
type Image struct {
	// Ref is the full reference, e.g. "webgpu/rai:root".
	Ref string
	// SizeBytes models pull cost.
	SizeBytes int64
	// Toolchains lists what is installed (cuda, cudnn, tensorflow, ...).
	Toolchains []string
	// DeviceSpeedup is the throughput multiplier the image's "GPU"
	// runtime grants compute kernels relative to the serial CPU baseline
	// (the simulation's stand-in for K40 vs K80 class hardware).
	DeviceSpeedup float64
}

// ParseRef splits an image reference into repository and tag. An empty
// tag defaults to "latest".
func ParseRef(ref string) (repo, tag string, err error) {
	if ref == "" || strings.ContainsAny(ref, " \t\n") {
		return "", "", fmt.Errorf("%w: %q", ErrBadRef, ref)
	}
	repo, tag, found := strings.Cut(ref, ":")
	if repo == "" {
		return "", "", fmt.Errorf("%w: %q", ErrBadRef, ref)
	}
	if !found || tag == "" {
		tag = "latest"
	}
	if strings.Contains(tag, "/") {
		return "", "", fmt.Errorf("%w: %q (tag contains '/')", ErrBadRef, ref)
	}
	return repo, tag, nil
}

// Registry is the remote image catalog plus whitelist.
type Registry struct {
	mu        sync.RWMutex
	images    map[string]Image // key: canonical ref
	whitelist map[string]bool
}

// New returns an empty registry.
func New() *Registry {
	return &Registry{images: map[string]Image{}, whitelist: map[string]bool{}}
}

// DefaultImages are the images the fall 2016 course offered: the default
// RAI image with the CUDA toolkit, CUDNN, and reference frameworks
// (paper §V "Container Execution").
func DefaultImages() []Image {
	return []Image{
		{
			Ref:           "webgpu/rai:root",
			SizeBytes:     4 << 30,
			Toolchains:    []string{"cuda-8.0", "cudnn-5", "cmake", "make", "nvprof", "tensorflow", "torch7", "libhdf5"},
			DeviceSpeedup: 1800, // K80-class device vs the 30-minute serial baseline
		},
		{
			Ref:           "webgpu/rai:cpu",
			SizeBytes:     1 << 30,
			Toolchains:    []string{"cmake", "make", "libhdf5"},
			DeviceSpeedup: 1, // no GPU: kernels run at baseline speed
		},
		{
			Ref:           "webgpu/rai:k40",
			SizeBytes:     4 << 30,
			Toolchains:    []string{"cuda-8.0", "cudnn-5", "cmake", "make", "nvprof", "libhdf5"},
			DeviceSpeedup: 1100, // G2-instance class (paper §VII used K40s early on)
		},
	}
}

// NewCourseRegistry returns a registry preloaded and whitelisted with
// DefaultImages.
func NewCourseRegistry() *Registry {
	r := New()
	for _, img := range DefaultImages() {
		_ = r.Add(img)
		_ = r.Whitelist(img.Ref)
	}
	return r
}

// Add registers an image (not yet whitelisted).
func (r *Registry) Add(img Image) error {
	repo, tag, err := ParseRef(img.Ref)
	if err != nil {
		return err
	}
	img.Ref = repo + ":" + tag
	r.mu.Lock()
	defer r.mu.Unlock()
	r.images[img.Ref] = img
	return nil
}

// Whitelist allows students to use ref.
func (r *Registry) Whitelist(ref string) error {
	repo, tag, err := ParseRef(ref)
	if err != nil {
		return err
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.whitelist[repo+":"+tag] = true
	return nil
}

// Resolve validates a student-supplied reference: it must parse, exist,
// and be whitelisted.
func (r *Registry) Resolve(ref string) (Image, error) {
	repo, tag, err := ParseRef(ref)
	if err != nil {
		return Image{}, err
	}
	canonical := repo + ":" + tag
	r.mu.RLock()
	defer r.mu.RUnlock()
	img, ok := r.images[canonical]
	if !ok {
		return Image{}, fmt.Errorf("%w: %q", ErrUnknownImage, canonical)
	}
	if !r.whitelist[canonical] {
		return Image{}, fmt.Errorf("%w: %q", ErrNotWhitelisted, canonical)
	}
	return img, nil
}

// Cache is a worker-local image cache: the first use of an image "pulls"
// it (modelled as size/bandwidth latency), later uses are instant
// (paper §V worker step 3).
type Cache struct {
	mu        sync.Mutex
	reg       *Registry
	present   map[string]bool
	Bandwidth int64 // bytes/second for pull-latency modelling
}

// NewCache returns an empty cache over reg with a 100 MB/s pull model.
func NewCache(reg *Registry) *Cache {
	return &Cache{reg: reg, present: map[string]bool{}, Bandwidth: 100 << 20}
}

// Pull ensures ref is locally available, returning the modelled pull
// latency (zero when cached).
func (c *Cache) Pull(ref string) (time.Duration, error) {
	img, err := c.reg.Resolve(ref)
	if err != nil {
		return 0, err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.present[img.Ref] {
		return 0, nil
	}
	c.present[img.Ref] = true
	lat := time.Duration(0)
	if c.Bandwidth > 0 {
		lat = time.Duration(float64(img.SizeBytes) / float64(c.Bandwidth) * float64(time.Second))
	}
	return lat, nil
}
