package cnn

import (
	"runtime"
	"sync"
)

// Impl selects a functionally identical implementation of the compute
// layers at a given optimization level. The levels mirror the
// optimization journey the course project expects from students.
type Impl int

// Implementations, slowest to fastest.
const (
	// ImplNaiveSerial is the provided baseline: direct quadruple-nested
	// loops, no blocking, bounds math in the inner loop.
	ImplNaiveSerial Impl = iota
	// ImplLoopReorder hoists invariant indexing and reorders loops for
	// sequential memory access.
	ImplLoopReorder
	// ImplTiled adds output-tile blocking for cache reuse.
	ImplTiled
	// ImplIm2col lowers convolution to im2col + GEMM.
	ImplIm2col
	// ImplParallel is the "device" version: im2col + GEMM parallelized
	// across goroutines over the batch (the reproduction's stand-in for
	// a CUDA kernel).
	ImplParallel
)

// Impls lists all implementations (for tests and ablation benches).
var Impls = []Impl{ImplNaiveSerial, ImplLoopReorder, ImplTiled, ImplIm2col, ImplParallel}

func (im Impl) String() string {
	switch im {
	case ImplNaiveSerial:
		return "naive-serial"
	case ImplLoopReorder:
		return "loop-reorder"
	case ImplTiled:
		return "tiled"
	case ImplIm2col:
		return "im2col"
	case ImplParallel:
		return "parallel"
	default:
		return "unknown"
	}
}

// conv2D computes a valid (no padding, stride 1) cross-correlation:
// out[n,m,y,x] = bias[m] + sum_{c,p,q} in[n,c,y+p,x+q] * w[m,c,p,q].
// Weights are shaped (M out-channels, C in-channels, K, K), and out is
// shaped (N, M, H-K+1, W-K+1) by the caller; the im2col kernels take
// their patch buffers from cols. Every kernel writes every element of
// out, so out may hold anything before.
func conv2D(im Impl, in, weights *Tensor, bias []float32, out *Tensor, cols *patches) {
	switch im {
	case ImplNaiveSerial:
		convNaive(in, weights, bias, out)
	case ImplLoopReorder:
		convReorder(in, weights, bias, out)
	case ImplTiled:
		convTiled(in, weights, bias, out)
	case ImplIm2col:
		convIm2col(in, weights, bias, out, cols, false)
	case ImplParallel:
		convIm2col(in, weights, bias, out, cols, true)
	default:
		convNaive(in, weights, bias, out)
	}
}

func convNaive(in, w *Tensor, bias []float32, out *Tensor) {
	k := w.H
	for n := 0; n < out.N; n++ {
		for m := 0; m < out.C; m++ {
			for y := 0; y < out.H; y++ {
				for x := 0; x < out.W; x++ {
					acc := bias[m]
					for c := 0; c < in.C; c++ {
						for p := 0; p < k; p++ {
							for q := 0; q < k; q++ {
								acc += in.At(n, c, y+p, x+q) * w.At(m, c, p, q)
							}
						}
					}
					out.Set(n, m, y, x, acc)
				}
			}
		}
	}
}

func convReorder(in, w *Tensor, bias []float32, out *Tensor) {
	k := w.H
	for n := 0; n < out.N; n++ {
		for m := 0; m < out.C; m++ {
			base := out.Index(n, m, 0, 0)
			for i := 0; i < out.H*out.W; i++ {
				out.Data[base+i] = bias[m]
			}
			for c := 0; c < in.C; c++ {
				for p := 0; p < k; p++ {
					for q := 0; q < k; q++ {
						wv := w.At(m, c, p, q)
						for y := 0; y < out.H; y++ {
							inRow := in.Index(n, c, y+p, q)
							outRow := base + y*out.W
							for x := 0; x < out.W; x++ {
								out.Data[outRow+x] += in.Data[inRow+x] * wv
							}
						}
					}
				}
			}
		}
	}
}

// tile is the output tile edge used by ImplTiled.
const tile = 8

func convTiled(in, w *Tensor, bias []float32, out *Tensor) {
	k := w.H
	for n := 0; n < out.N; n++ {
		for m := 0; m < out.C; m++ {
			base := out.Index(n, m, 0, 0)
			for i := 0; i < out.H*out.W; i++ {
				out.Data[base+i] = bias[m]
			}
			for ty := 0; ty < out.H; ty += tile {
				yEnd := min(ty+tile, out.H)
				for tx := 0; tx < out.W; tx += tile {
					xEnd := min(tx+tile, out.W)
					for c := 0; c < in.C; c++ {
						for p := 0; p < k; p++ {
							for q := 0; q < k; q++ {
								wv := w.At(m, c, p, q)
								for y := ty; y < yEnd; y++ {
									inRow := in.Index(n, c, y+p, q)
									outRow := base + y*out.W
									for x := tx; x < xEnd; x++ {
										out.Data[outRow+x] += in.Data[inRow+x] * wv
									}
								}
							}
						}
					}
				}
			}
		}
	}
}

// patches holds im2col patch buffers, one per goroutine, across calls.
type patches [][]float32

// get returns buffer i resized to n elements, allocating only when it
// is too small. Only the goroutine that owns p calls it.
func (p *patches) get(i, n int) []float32 {
	for len(*p) <= i {
		*p = append(*p, nil)
	}
	(*p)[i] = grow((*p)[i], n)
	return (*p)[i]
}

// grow returns buf resliced to n elements, reallocated only when its
// capacity is short. The elements keep whatever they held.
func grow(buf []float32, n int) []float32 {
	if cap(buf) < n {
		return make([]float32, n)
	}
	return buf[:n]
}

// convIm2col lowers each image to a (C*K*K) x (outH*outW) matrix and
// multiplies by the (M) x (C*K*K) weight matrix, with one patch buffer
// from cols per goroutine.
func convIm2col(in, w *Tensor, bias []float32, out *Tensor, cols *patches, parallel bool) {
	size := in.C * w.H * w.H * out.H * out.W
	if !parallel || in.N == 1 {
		col := cols.get(0, size)
		for n := 0; n < in.N; n++ {
			im2colImage(in, w, bias, out, n, col)
		}
		return
	}
	workers := runtime.GOMAXPROCS(0)
	if workers > in.N {
		workers = in.N
	}
	var wg sync.WaitGroup
	next := make(chan int)
	for g := 0; g < workers; g++ {
		col := cols.get(g, size)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for n := range next {
				im2colImage(in, w, bias, out, n, col)
			}
		}()
	}
	for n := 0; n < in.N; n++ {
		next <- n
	}
	close(next)
	wg.Wait()
}

// im2colImage computes image n of convIm2col, lowering it into col.
func im2colImage(in, w *Tensor, bias []float32, out *Tensor, n int, col []float32) {
	k := w.H
	rows := in.C * k * k
	cols := out.H * out.W
	wMat := w.Data // already (M, C*K*K) contiguous
	// im2col
	idx := 0
	for c := 0; c < in.C; c++ {
		for p := 0; p < k; p++ {
			for q := 0; q < k; q++ {
				for y := 0; y < out.H; y++ {
					inRow := in.Index(n, c, y+p, q)
					copy(col[idx+y*out.W:idx+(y+1)*out.W], in.Data[inRow:inRow+out.W])
				}
				idx += cols
			}
		}
	}
	// GEMM: out[m, :] = bias[m] + wMat[m, :] * col
	for m := 0; m < out.C; m++ {
		outRow := out.Index(n, m, 0, 0)
		gemmStrip(out.Data[outRow:outRow+cols], wMat[m*rows:(m+1)*rows], col, bias[m])
	}
}

// gemmStripGo computes one output channel of the im2col GEMM for every
// pixel i >= from: dst[i] = bias + Σ_r w[r]·col[r·len(dst)+i], with col
// the (len(w) × len(dst)) patch matrix. Eight adjacent pixels are summed
// at a time in locals, so dst is written once per pixel; the pixels past
// the last full block are summed one at a time. Every sum starts at bias
// and adds w[r]·col in ascending r, the order every Impl uses, so the
// result is bit-identical to ImplNaiveSerial.
func gemmStripGo(dst, w, col []float32, bias float32, from int) {
	cols := len(dst)
	i := from
	for ; i+8 <= cols; i += 8 {
		a0, a1, a2, a3, a4, a5, a6, a7 := bias, bias, bias, bias, bias, bias, bias, bias
		off := i
		for _, wv := range w {
			s := (*[8]float32)(col[off:])
			off += cols
			a0 += wv * s[0]
			a1 += wv * s[1]
			a2 += wv * s[2]
			a3 += wv * s[3]
			a4 += wv * s[4]
			a5 += wv * s[5]
			a6 += wv * s[6]
			a7 += wv * s[7]
		}
		d := (*[8]float32)(dst[i:])
		d[0], d[1], d[2], d[3], d[4], d[5], d[6], d[7] = a0, a1, a2, a3, a4, a5, a6, a7
	}
	for ; i < cols; i++ {
		acc := bias
		off := i
		for _, wv := range w {
			acc += wv * col[off]
			off += cols
		}
		dst[i] = acc
	}
}

// ReLU applies max(x, 0) elementwise, in place, and returns t. It is
// branch-free: activations change sign unpredictably. A NaN stays NaN,
// and -0 becomes +0, which can change only the sign of a later sum that
// is exactly zero.
func ReLU(t *Tensor) *Tensor {
	d := t.Data
	for i, v := range d {
		d[i] = max(v, 0)
	}
	return t
}

// avgPool2 performs 2x2 average pooling with stride 2 into out, shaped
// (N, C, H/2, W/2) (an odd last row or column is dropped).
func avgPool2(in, out *Tensor) {
	plane := in.H * in.W
	o := 0
	for p := 0; p < in.N*in.C; p++ {
		for y := 0; y < out.H; y++ {
			top := p*plane + 2*y*in.W
			r0 := in.Data[top : top+in.W]
			r1 := in.Data[top+in.W : top+2*in.W]
			d := out.Data[o : o+out.W]
			for x := range d {
				s := r0[2*x] + r0[2*x+1] + r1[2*x] + r1[2*x+1]
				d[x] = s / 4
			}
			o += out.W
		}
	}
}

// fullyConnected computes out[n, j] = bias[j] + sum_i in[n, i] * w[j, i]
// into out, shaped (N, outDim, 1, 1), treating the input as (N, C*H*W).
// Weights are shaped (outDim, inDim) in w.N and w.C with H=W=1. Four
// outputs are summed per pass over an input row, as four independent
// chains in ascending i.
func fullyConnected(im Impl, in, w *Tensor, bias []float32, out *Tensor) {
	if im != ImplParallel || in.N <= 1 {
		for n := 0; n < in.N; n++ {
			fcRow(in, w, bias, out, n)
		}
		return
	}
	var wg sync.WaitGroup
	next := make(chan int)
	workers := runtime.GOMAXPROCS(0)
	if workers > in.N {
		workers = in.N
	}
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for n := range next {
				fcRow(in, w, bias, out, n)
			}
		}()
	}
	for n := 0; n < in.N; n++ {
		next <- n
	}
	close(next)
	wg.Wait()
}

// fcRow computes batch element n of fullyConnected.
func fcRow(in, w *Tensor, bias []float32, out *Tensor, n int) {
	inDim := in.C * in.H * in.W
	outDim := w.N
	x := in.Data[n*inDim : (n+1)*inDim]
	dst := out.Data[n*outDim : (n+1)*outDim]
	j := 0
	for ; j+4 <= outDim; j += 4 {
		w0 := w.Data[j*inDim : (j+1)*inDim]
		w1 := w.Data[(j+1)*inDim : (j+2)*inDim]
		w2 := w.Data[(j+2)*inDim : (j+3)*inDim]
		w3 := w.Data[(j+3)*inDim : (j+4)*inDim]
		w0, w1, w2, w3 = w0[:len(x)], w1[:len(x)], w2[:len(x)], w3[:len(x)]
		a0, a1, a2, a3 := bias[j], bias[j+1], bias[j+2], bias[j+3]
		for i, v := range x {
			a0 += v * w0[i]
			a1 += v * w1[i]
			a2 += v * w2[i]
			a3 += v * w3[i]
		}
		dst[j], dst[j+1], dst[j+2], dst[j+3] = a0, a1, a2, a3
	}
	for ; j < outDim; j++ {
		acc := bias[j]
		wRow := w.Data[j*inDim : (j+1)*inDim]
		for i, v := range x {
			acc += v * wRow[i]
		}
		dst[j] = acc
	}
}

// ArgMax returns the index of the largest logit per batch element.
func ArgMax(t *Tensor) []int {
	out := make([]int, t.N)
	for n := range out {
		out[n] = argMax(t, n)
	}
	return out
}

// argMax returns the index of batch element n's largest logit.
func argMax(t *Tensor, n int) int {
	dim := t.C * t.H * t.W
	row := t.Data[n*dim : (n+1)*dim]
	best, bestIdx := row[0], 0
	for i, v := range row[1:] {
		if v > best {
			best, bestIdx = v, i+1
		}
	}
	return bestIdx
}
