//go:build !amd64

package cnn

// gemmStrip computes one output channel of the im2col GEMM:
// dst[i] = bias + Σ_r w[r]·col[r·len(dst)+i].
func gemmStrip(dst, w, col []float32, bias float32) {
	gemmStripGo(dst, w, col, bias, 0)
}
