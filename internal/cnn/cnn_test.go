package cnn

import (
	"bytes"
	"fmt"
	"math"
	"slices"
	"strings"
	"sync"
	"testing"
	"testing/quick"

	"rai/internal/h5lite"
)

func TestTensorIndexing(t *testing.T) {
	tt := NewTensor(2, 3, 4, 5)
	tt.Set(1, 2, 3, 4, 42)
	if got := tt.At(1, 2, 3, 4); got != 42 {
		t.Fatalf("At = %v", got)
	}
	if got := tt.Data[tt.Index(1, 2, 3, 4)]; got != 42 {
		t.Fatalf("Index = %v", got)
	}
	if tt.Len() != 120 {
		t.Fatalf("Len = %d", tt.Len())
	}
}

func TestTensorBadShapePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewTensor(0,...) did not panic")
		}
	}()
	NewTensor(0, 1, 1, 1)
}

func TestConvKnownValues(t *testing.T) {
	// 1x1x3x3 input, single 2x2 all-ones filter, bias 1:
	// out[y][x] = 1 + sum of the 2x2 window.
	in := NewTensor(1, 1, 3, 3)
	for i := 0; i < 9; i++ {
		in.Data[i] = float32(i) // 0..8
	}
	w := NewTensor(1, 1, 2, 2)
	for i := range w.Data {
		w.Data[i] = 1
	}
	want := []float32{
		1 + 0 + 1 + 3 + 4, 1 + 1 + 2 + 4 + 5,
		1 + 3 + 4 + 6 + 7, 1 + 4 + 5 + 7 + 8,
	}
	for _, im := range Impls {
		out := newConv2D(im, in, w, []float32{1})
		if out.H != 2 || out.W != 2 {
			t.Fatalf("%v: out shape %v", im, out.Shape())
		}
		for i := range want {
			if out.Data[i] != want[i] {
				t.Errorf("%v: out[%d] = %v, want %v", im, i, out.Data[i], want[i])
			}
		}
	}
}

func TestReLU(t *testing.T) {
	tt := NewTensor(1, 1, 1, 4)
	copy(tt.Data, []float32{-1, 0, 2, -0.5})
	ReLU(tt)
	want := []float32{0, 0, 2, 0}
	for i := range want {
		if tt.Data[i] != want[i] {
			t.Fatalf("ReLU = %v", tt.Data)
		}
	}
}

func TestReLUMatchesReference(t *testing.T) {
	tt := NewTensor(1, 1, 1, 6)
	copy(tt.Data, []float32{-1, 3, float32(math.Inf(-1)), float32(math.Inf(1)), -1e-30, 1e-30})
	want := refReLU(&Tensor{N: 1, C: 1, H: 1, W: 6, Data: append([]float32(nil), tt.Data...)})
	if i := firstDiff(want, ReLU(tt)); i >= 0 {
		t.Fatalf("ReLU = %v, want %v", tt.Data, want.Data)
	}
	odd := NewTensor(1, 1, 1, 2)
	odd.Data[0], odd.Data[1] = float32(math.NaN()), float32(math.Copysign(0, -1))
	ReLU(odd)
	if v := odd.Data[0]; v == v {
		t.Errorf("ReLU(NaN) = %v, want NaN", v)
	}
	if b := math.Float32bits(odd.Data[1]); b != 0 {
		t.Errorf("ReLU(-0) has bits %#x, want +0", b)
	}
}

func TestAvgPool2MatchesReference(t *testing.T) {
	rng := newPRNG(3)
	for _, s := range [][4]int{{1, 1, 2, 2}, {2, 3, 24, 24}, {1, 2, 5, 7}, {3, 1, 8, 3}} {
		in := NewTensor(s[0], s[1], s[2], s[3])
		for i := range in.Data {
			in.Data[i] = rng.float(1) / 3 // a full mantissa, so sums round
		}
		if i := firstDiff(refAvgPool2(in), newAvgPool2(in)); i >= 0 {
			t.Errorf("%v: output %d differs", s, i)
		}
	}
}

func TestAvgPool2(t *testing.T) {
	in := NewTensor(1, 1, 2, 4)
	copy(in.Data, []float32{1, 2, 3, 4, 5, 6, 7, 8})
	out := newAvgPool2(in)
	if out.H != 1 || out.W != 2 {
		t.Fatalf("shape = %v", out.Shape())
	}
	if out.Data[0] != (1+2+5+6)/4.0 || out.Data[1] != (3+4+7+8)/4.0 {
		t.Fatalf("pool = %v", out.Data)
	}
}

func TestFullyConnectedKnown(t *testing.T) {
	in := NewTensor(1, 3, 1, 1)
	copy(in.Data, []float32{1, 2, 3})
	w := NewTensor(2, 3, 1, 1)
	copy(w.Data, []float32{1, 0, 0, 0, 1, 1})
	for _, im := range Impls {
		out := newFullyConnected(im, in, w, []float32{10, 20})
		if out.Data[0] != 11 || out.Data[1] != 25 {
			t.Fatalf("%v: fc = %v", im, out.Data)
		}
	}
}

func TestArgMax(t *testing.T) {
	tt := NewTensor(2, 3, 1, 1)
	copy(tt.Data, []float32{0, 5, 2, 7, 1, 3})
	got := ArgMax(tt)
	if got[0] != 1 || got[1] != 0 {
		t.Fatalf("ArgMax = %v", got)
	}
}

// TestImplementationsAgree is the core equivalence property: every
// optimization level computes the same network function, bit for bit,
// because every output is summed in the same order (bias, then w·x over
// the reduction index ascending).
func TestImplementationsAgree(t *testing.T) {
	nw := NewNetwork(408)
	ds, err := SynthesizeDataset(nw, 598, 8)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := nw.Forward(ImplNaiveSerial, ds.Images)
	if err != nil {
		t.Fatal(err)
	}
	for _, im := range Impls[1:] {
		got, err := nw.Forward(im, ds.Images)
		if err != nil {
			t.Fatal(err)
		}
		if i := firstDiff(ref, got); i >= 0 {
			t.Errorf("%v logit %d = %v, naive-serial %v", im, i, got.Data[i], ref.Data[i])
		}
	}
}

// TestForwardMatchesReference pins every Impl to the layer definitions
// written out plainly below (the conv is convNaive): the logits must be
// identical bits, on several seeds, for the network and for the model
// and dataset after the h5lite round trip the worker reads them through.
func TestForwardMatchesReference(t *testing.T) {
	for _, seed := range []uint64{408, 1117, 7} {
		nw := NewNetwork(seed)
		ds, err := SynthesizeDataset(nw, seed+1, 16)
		if err != nil {
			t.Fatal(err)
		}
		want := refForward(nw, ds.Images)
		blob, err := nw.SaveModel()
		if err != nil {
			t.Fatal(err)
		}
		loaded, err := LoadModel(blob)
		if err != nil {
			t.Fatal(err)
		}
		enc, err := ds.Encode()
		if err != nil {
			t.Fatal(err)
		}
		back, err := DecodeDataset(enc)
		if err != nil {
			t.Fatal(err)
		}
		for _, im := range Impls {
			for _, net := range []*Network{nw, loaded} {
				got, err := net.Forward(im, back.Images)
				if err != nil {
					t.Fatal(err)
				}
				if i := firstDiff(want, got); i >= 0 {
					t.Errorf("seed %d %v: logit %d = %v, reference %v", seed, im, i, got.Data[i], want.Data[i])
				}
			}
		}
	}
}

// TestForwardScratchReuse runs one scratch through batches that shrink
// and grow and through every Impl, so each buffer starts with the last
// call's values, and then runs Forward from several goroutines at once:
// every result must be the reference's bits, and neither the weights nor
// the input may change (the worker shares one decoded network and
// dataset between its slots and never copies them).
func TestForwardScratchReuse(t *testing.T) {
	nw := NewNetwork(408)
	model, err := nw.SaveModel() // before SynthesizeDataset runs inference
	if err != nil {
		t.Fatal(err)
	}
	ds, err := SynthesizeDataset(nw, 5, 16)
	if err != nil {
		t.Fatal(err)
	}
	images := slices.Clone(ds.Images.Data)
	var s scratch
	for _, n := range []int{16, 3, 1, 16, 7} {
		in := &Tensor{N: n, C: 1, H: InputH, W: InputW, Data: ds.Images.Data[:n*InputH*InputW]}
		want := refForward(nw, in)
		for _, im := range Impls {
			got, err := nw.forward(im, in, &s)
			if err != nil {
				t.Fatal(err)
			}
			if i := firstDiff(want, got); i >= 0 {
				t.Errorf("batch %d %v: logit %d = %v, reference %v", n, im, i, got.Data[i], want.Data[i])
			}
		}
	}
	want := refForward(nw, ds.Images)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 5; i++ {
				im := Impls[(g+i)%len(Impls)]
				got, err := nw.Forward(im, ds.Images)
				if err != nil {
					t.Error(err)
					return
				}
				if j := firstDiff(want, got); j >= 0 {
					t.Errorf("goroutine %d %v: logit %d = %v, reference %v", g, im, j, got.Data[j], want.Data[j])
				}
			}
		}()
	}
	wg.Wait()
	after, err := nw.SaveModel()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(model, after) {
		t.Error("inference wrote the weights")
	}
	if !slices.Equal(images, ds.Images.Data) {
		t.Error("inference wrote its input")
	}
}

// TestQuickConvEquivalence checks every Impl against ImplNaiveSerial on
// random shapes, bit for bit. Output widths and pixel counts that are not
// multiples of the GEMM's eight-pixel block exercise its tail.
func TestQuickConvEquivalence(t *testing.T) {
	prop := func(seed uint64) bool {
		rng := newPRNG(seed)
		dim := func(lo, n int) int { return lo + int(rng.next()%uint64(n)) }
		k := dim(1, 5)
		in := NewTensor(dim(1, 3), dim(1, 4), k+dim(0, 12), k+dim(0, 12))
		for i := range in.Data {
			in.Data[i] = rng.float(1)
		}
		w := NewTensor(dim(1, 9), in.C, k, k)
		for i := range w.Data {
			w.Data[i] = rng.float(1)
		}
		bias := make([]float32, w.N)
		for i := range bias {
			bias[i] = rng.float(0.5)
		}
		ref := newConv2D(ImplNaiveSerial, in, w, bias)
		for _, im := range Impls[1:] {
			if i := firstDiff(ref, newConv2D(im, in, w, bias)); i >= 0 {
				t.Logf("%v differs at %d on in %v, w %v", im, i, in.Shape(), w.Shape())
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestConvTails fixes the shapes the quick check may miss: output widths
// below, at and around the eight-pixel block, and channel counts that are
// not multiples of the fully connected layer's four-output block.
func TestConvTails(t *testing.T) {
	rng := newPRNG(55)
	for _, c := range []struct{ n, ch, h, w, m, k int }{
		{1, 1, 3, 3, 1, 3},   // one output pixel
		{2, 3, 9, 9, 4, 3},   // 7x7: no full block
		{1, 2, 12, 10, 5, 3}, // 10x8: whole blocks, odd channels
		{3, 1, 28, 28, 6, 5}, // conv1
		{2, 6, 12, 12, 16, 5},
		{1, 4, 11, 13, 7, 2}, // 10x12 = 120 pixels, 12 wide
		{2, 2, 6, 21, 3, 5},  // 2x17
	} {
		in := NewTensor(c.n, c.ch, c.h, c.w)
		for i := range in.Data {
			in.Data[i] = rng.float(1)
		}
		w := NewTensor(c.m, c.ch, c.k, c.k)
		for i := range w.Data {
			w.Data[i] = rng.float(1)
		}
		bias := make([]float32, c.m)
		for i := range bias {
			bias[i] = rng.float(0.5)
		}
		ref := newConv2D(ImplNaiveSerial, in, w, bias)
		for _, im := range Impls[1:] {
			if i := firstDiff(ref, newConv2D(im, in, w, bias)); i >= 0 {
				t.Errorf("%+v %v: output %d differs", c, im, i)
			}
		}
		// The FC layer on the same activations, out dims around its block.
		fcw := NewTensor(c.m, c.ch*c.h*c.w, 1, 1)
		for i := range fcw.Data {
			fcw.Data[i] = rng.float(1)
		}
		want := refFullyConnected(in, fcw, bias)
		for _, im := range Impls {
			if i := firstDiff(want, newFullyConnected(im, in, fcw, bias)); i >= 0 {
				t.Errorf("%+v %v: fc output %d differs", c, im, i)
			}
		}
	}
}

// TestGEMMStripKernels compares the strip kernel the platform uses and
// the portable Go one with a plain per-pixel sum, across pixel counts on
// both sides of the eight-pixel block.
func TestGEMMStripKernels(t *testing.T) {
	rng := newPRNG(91)
	for _, rows := range []int{1, 2, 25, 150} {
		for _, cols := range []int{1, 5, 7, 8, 9, 15, 16, 17, 63, 64, 65, 576} {
			w := make([]float32, rows)
			col := make([]float32, rows*cols)
			for i := range w {
				w[i] = rng.float(1)
			}
			for i := range col {
				col[i] = rng.float(1)
			}
			bias := rng.float(0.5)
			want := make([]float32, cols)
			for i := range want {
				acc := bias
				for r := range w {
					acc += w[r] * col[r*cols+i]
				}
				want[i] = acc
			}
			kernels := map[string]func(dst []float32){
				"platform": func(dst []float32) { gemmStrip(dst, w, col, bias) },
				"go":       func(dst []float32) { gemmStripGo(dst, w, col, bias, 0) },
			}
			for name, run := range kernels {
				got := make([]float32, cols)
				run(got)
				for i := range got {
					if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
						t.Fatalf("%s rows %d cols %d: dst[%d] = %v, want %v", name, rows, cols, i, got[i], want[i])
					}
				}
			}
		}
	}
}

func TestAccuracyPerfectOnOwnLabels(t *testing.T) {
	nw := NewNetwork(408)
	ds, err := SynthesizeDataset(nw, 9, 50)
	if err != nil {
		t.Fatal(err)
	}
	for _, im := range Impls {
		acc, err := nw.Accuracy(im, ds.Images, ds.Labels)
		if err != nil {
			t.Fatal(err)
		}
		if acc != 1.0 {
			t.Errorf("%v accuracy = %v, want 1.0", im, acc)
		}
	}
}

func TestAccuracyDetectsWrongModel(t *testing.T) {
	nw := NewNetwork(408)
	ds, _ := SynthesizeDataset(nw, 9, 100)
	other := NewNetwork(999) // different weights = wrong implementation
	acc, err := other.Accuracy(ImplIm2col, ds.Images, ds.Labels)
	if err != nil {
		t.Fatal(err)
	}
	if acc > 0.9 {
		t.Errorf("wrong model scored %v; accuracy check has no power", acc)
	}
}

func TestForwardRejectsBadInput(t *testing.T) {
	nw := NewNetwork(1)
	bad := NewTensor(1, 1, 27, 28)
	if _, err := nw.Forward(ImplNaiveSerial, bad); err == nil || !strings.Contains(err.Error(), "input") {
		t.Fatalf("bad input: %v", err)
	}
	if _, err := nw.Accuracy(ImplNaiveSerial, NewTensor(2, 1, 28, 28), []int32{1}); err == nil {
		t.Fatal("label count mismatch accepted")
	}
}

func TestModelSaveLoadRoundTrip(t *testing.T) {
	nw := NewNetwork(408)
	blob, err := nw.SaveModel()
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadModel(blob)
	if err != nil {
		t.Fatal(err)
	}
	ds, _ := SynthesizeDataset(nw, 3, 5)
	want, _ := nw.Forward(ImplIm2col, ds.Images)
	got, err := loaded.Forward(ImplIm2col, ds.Images)
	if err != nil {
		t.Fatal(err)
	}
	d, _ := maxAbsDiff(want, got)
	if d != 0 {
		t.Errorf("loaded model diverges by %v", d)
	}
}

func TestLoadModelRejectsGarbage(t *testing.T) {
	if _, err := LoadModel([]byte("junk")); err == nil {
		t.Fatal("garbage model accepted")
	}
}

func TestLoadModelRejectsWrongShapes(t *testing.T) {
	for _, name := range []string{"conv1/weights", "conv2/bias", "fc1/weights", "fc2/bias"} {
		f := h5lite.NewFile()
		for _, l := range weightedLayers {
			wShape, bShape := []int{l.out, l.in, l.k, l.k}, []int{l.out}
			if l.wName == name {
				wShape = []int{l.out, l.in + 1, l.k, l.k}
			}
			if l.bName == name {
				bShape = []int{l.out + 1}
			}
			for _, d := range []struct {
				name  string
				shape []int
			}{{l.wName, wShape}, {l.bName, bShape}} {
				n := 1
				for _, v := range d.shape {
					n *= v
				}
				if err := f.AddFloat32(d.name, d.shape, make([]float32, n)); err != nil {
					t.Fatal(err)
				}
			}
		}
		_, err := LoadModel(f.Encode())
		if err == nil || !strings.Contains(err.Error(), name) {
			t.Errorf("model with a wrong %s: err = %v", name, err)
		}
	}
	// Fully connected weights stored as rank 2 are accepted.
	nw := NewNetwork(5)
	f := h5lite.NewFile()
	for i, p := range nw.params() {
		l, w := weightedLayers[i], *p.w
		shape := w.Shape()
		if l.k == 1 {
			shape = shape[:2]
		}
		if err := f.AddFloat32(l.wName, shape, w.Data); err != nil {
			t.Fatal(err)
		}
		if err := f.AddFloat32(l.bName, []int{len(*p.b)}, *p.b); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := LoadModel(f.Encode()); err != nil {
		t.Fatalf("rank-2 fc weights: %v", err)
	}
}

func TestDatasetEncodeDecodeRoundTrip(t *testing.T) {
	nw := NewNetwork(408)
	ds, _ := SynthesizeDataset(nw, 4, 10)
	blob, err := ds.Encode()
	if err != nil {
		t.Fatal(err)
	}
	back, err := DecodeDataset(blob)
	if err != nil {
		t.Fatal(err)
	}
	if back.Images.N != 10 || len(back.Labels) != 10 {
		t.Fatalf("decoded = %v images, %v labels", back.Images.N, len(back.Labels))
	}
	d, _ := maxAbsDiff(ds.Images, back.Images)
	if d != 0 {
		t.Errorf("images diverge by %v", d)
	}
	for i := range ds.Labels {
		if ds.Labels[i] != back.Labels[i] {
			t.Fatalf("labels differ at %d", i)
		}
	}
}

func TestDatasetDeterministic(t *testing.T) {
	nw := NewNetwork(408)
	a, _ := SynthesizeDataset(nw, 7, 6)
	b, _ := SynthesizeDataset(nw, 7, 6)
	d, _ := maxAbsDiff(a.Images, b.Images)
	if d != 0 {
		t.Error("same seed produced different datasets")
	}
	c, _ := SynthesizeDataset(nw, 8, 6)
	d2, _ := maxAbsDiff(a.Images, c.Images)
	if d2 == 0 {
		t.Error("different seeds produced identical datasets")
	}
}

func TestImplString(t *testing.T) {
	names := map[Impl]string{
		ImplNaiveSerial: "naive-serial", ImplLoopReorder: "loop-reorder",
		ImplTiled: "tiled", ImplIm2col: "im2col", ImplParallel: "parallel",
		Impl(99): "unknown",
	}
	for im, want := range names {
		if im.String() != want {
			t.Errorf("%d.String() = %q", im, im.String())
		}
	}
}

// maxAbsDiff returns the largest absolute element difference between two
// same-shaped tensors.
func maxAbsDiff(a, b *Tensor) (float64, error) {
	if a.N != b.N || a.C != b.C || a.H != b.H || a.W != b.W {
		return 0, fmt.Errorf("cnn: shape mismatch %v vs %v", a.Shape(), b.Shape())
	}
	var m float64
	for i := range a.Data {
		d := math.Abs(float64(a.Data[i]) - float64(b.Data[i]))
		if d > m {
			m = d
		}
	}
	return m, nil
}

// firstDiff returns the first index at which two same-shaped tensors
// hold different bits, or -1 when they are identical (a shape mismatch
// is index 0).
func firstDiff(a, b *Tensor) int {
	if a.N != b.N || a.C != b.C || a.H != b.H || a.W != b.W || len(a.Data) != len(b.Data) {
		return 0
	}
	for i := range a.Data {
		if math.Float32bits(a.Data[i]) != math.Float32bits(b.Data[i]) {
			return i
		}
	}
	return -1
}

// The reference layers: each output written as its definition, summed
// in the order every Impl keeps.

func refForward(nw *Network, in *Tensor) *Tensor {
	conv := func(in, w *Tensor, bias []float32) *Tensor {
		out := NewTensor(in.N, w.N, in.H-w.H+1, in.W-w.W+1)
		convNaive(in, w, bias, out)
		return out
	}
	x := refAvgPool2(refReLU(conv(in, nw.Conv1W, nw.Conv1B)))
	x = refAvgPool2(refReLU(conv(x, nw.Conv2W, nw.Conv2B)))
	x = refReLU(refFullyConnected(x, nw.FC1W, nw.FC1B))
	return refFullyConnected(x, nw.FC2W, nw.FC2B)
}

func refReLU(t *Tensor) *Tensor {
	for i, v := range t.Data {
		if v < 0 {
			t.Data[i] = 0
		}
	}
	return t
}

func refAvgPool2(in *Tensor) *Tensor {
	out := NewTensor(in.N, in.C, in.H/2, in.W/2)
	for n := 0; n < in.N; n++ {
		for c := 0; c < in.C; c++ {
			for y := 0; y < out.H; y++ {
				for x := 0; x < out.W; x++ {
					s := in.At(n, c, 2*y, 2*x) + in.At(n, c, 2*y, 2*x+1) +
						in.At(n, c, 2*y+1, 2*x) + in.At(n, c, 2*y+1, 2*x+1)
					out.Set(n, c, y, x, s/4)
				}
			}
		}
	}
	return out
}

func refFullyConnected(in, w *Tensor, bias []float32) *Tensor {
	inDim := in.C * in.H * in.W
	out := NewTensor(in.N, w.N, 1, 1)
	for n := 0; n < in.N; n++ {
		for j := 0; j < w.N; j++ {
			acc := bias[j]
			for i := 0; i < inDim; i++ {
				acc += in.Data[n*inDim+i] * w.Data[j*inDim+i]
			}
			out.Data[n*w.N+j] = acc
		}
	}
	return out
}

// newConv2D is conv2D into a tensor of its own.
func newConv2D(im Impl, in, weights *Tensor, bias []float32) *Tensor {
	k := weights.H
	out := NewTensor(in.N, weights.N, in.H-k+1, in.W-k+1)
	var cols patches
	conv2D(im, in, weights, bias, out, &cols)
	return out
}

// newAvgPool2 is avgPool2 into a tensor of its own.
func newAvgPool2(in *Tensor) *Tensor {
	out := NewTensor(in.N, in.C, in.H/2, in.W/2)
	avgPool2(in, out)
	return out
}

// newFullyConnected is fullyConnected into a tensor of its own.
func newFullyConnected(im Impl, in, w *Tensor, bias []float32) *Tensor {
	out := NewTensor(in.N, w.N, 1, 1)
	fullyConnected(im, in, w, bias, out)
	return out
}
