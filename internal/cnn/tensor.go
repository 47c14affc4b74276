// Package cnn implements the course project workload: the forward
// (inference) pass of a fixed convolutional neural network. The fall 2016
// Applied Parallel Programming project asked student teams for "a
// high-performance CUDA implementation of a convolutional neural network
// inference step" (paper §I); teams started from a serial CPU baseline
// that took ~30 minutes on the full dataset and optimized until most ran
// under a second (paper Figure 2).
//
// This package is the stand-in for that workload: a LeNet-style network
// with several functionally identical implementations at increasing
// optimization levels — naive serial loops, loop-reordered, cache-tiled,
// im2col+GEMM, and a goroutine-parallel "device" version. Real arithmetic
// runs on every path, so relative speedups are measured, not asserted.
//
// Every implementation returns the same logits, bit for bit. Each output
// of a convolution or fully connected layer is summed as its bias first,
// then acc += w*x over the reduction index (channel, kernel row, kernel
// column; or input element) in ascending order, with every product and
// sum rounded to float32. A faster kernel may block outputs in registers,
// SIMD lanes or goroutines, but never reassociates a sum, so an
// implementation's accuracy is exactly ImplNaiveSerial's.
package cnn

import "fmt"

// Tensor is a dense float32 array in NCHW layout (batch, channel,
// height, width). Lower-rank tensors use leading dimensions of size 1.
type Tensor struct {
	N, C, H, W int
	Data       []float32
}

// NewTensor allocates a zero tensor of the given shape.
func NewTensor(n, c, h, w int) *Tensor {
	if n <= 0 || c <= 0 || h <= 0 || w <= 0 {
		panic(fmt.Sprintf("cnn: invalid tensor shape %dx%dx%dx%d", n, c, h, w))
	}
	return &Tensor{N: n, C: c, H: h, W: w, Data: make([]float32, n*c*h*w)}
}

// At returns the element at (n, c, h, w).
func (t *Tensor) At(n, c, h, w int) float32 {
	return t.Data[((n*t.C+c)*t.H+h)*t.W+w]
}

// Set writes the element at (n, c, h, w).
func (t *Tensor) Set(n, c, h, w int, v float32) {
	t.Data[((n*t.C+c)*t.H+h)*t.W+w] = v
}

// Index computes the flat offset of (n, c, h, w).
func (t *Tensor) Index(n, c, h, w int) int {
	return ((n*t.C+c)*t.H+h)*t.W + w
}

// Len returns the element count.
func (t *Tensor) Len() int { return t.N * t.C * t.H * t.W }

// Shape returns the shape as a slice.
func (t *Tensor) Shape() []int { return []int{t.N, t.C, t.H, t.W} }

// prng is a small deterministic generator (xorshift64*) used for weights
// and synthetic data so models and datasets are reproducible from a seed
// without math/rand's global state.
type prng struct{ s uint64 }

func newPRNG(seed uint64) *prng {
	if seed == 0 {
		seed = 0x9E3779B97F4A7C15
	}
	return &prng{s: seed}
}

func (p *prng) next() uint64 {
	p.s ^= p.s >> 12
	p.s ^= p.s << 25
	p.s ^= p.s >> 27
	return p.s * 0x2545F4914F6CDD1D
}

// float returns a uniform float32 in [-scale, scale).
func (p *prng) float(scale float32) float32 {
	u := p.next() >> 40 // 24 bits
	return (float32(u)/float32(1<<24)*2 - 1) * scale
}
