package cnn

// gemmStrip computes one output channel of the im2col GEMM:
// dst[i] = bias + Σ_r w[r]·col[r·len(dst)+i]. The SSE kernel sums eight
// pixels at a time, each lane adding w[r]·col in ascending r exactly as
// the scalar code does (packed MULPS/ADDPS round every lane like
// MULSS/ADDSS, and nothing is fused), and the Go kernel finishes the
// pixels past the last full block.
func gemmStrip(dst, w, col []float32, bias float32) {
	col = col[:len(w)*len(dst)] // the assembly reads all of this and no more
	done := gemmStrip8(dst, w, col, bias)
	gemmStripGo(dst, w, col, bias, done)
}

// gemmStrip8 fills dst[:len(dst)&^7] and returns len(dst)&^7. It reads
// w[:len(w)] and col[:len(w)*len(dst)], which the caller guarantees.
//
//go:noescape
func gemmStrip8(dst, w, col []float32, bias float32) int
