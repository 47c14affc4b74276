package cnn

import (
	"fmt"
	"math"
	"strings"
	"testing"
	"testing/quick"
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
		out := Conv2D(im, in, w, []float32{1})
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

func TestAvgPool2(t *testing.T) {
	in := NewTensor(1, 1, 2, 4)
	copy(in.Data, []float32{1, 2, 3, 4, 5, 6, 7, 8})
	out := AvgPool2(in)
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
		out := FullyConnected(im, in, w, []float32{10, 20})
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
// optimization level computes the same network function.
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
		diff, err := maxAbsDiff(ref, got)
		if err != nil {
			t.Fatal(err)
		}
		// Different summation orders allow small float divergence only.
		if diff > 1e-3 {
			t.Errorf("%v diverges from naive by %v", im, diff)
		}
	}
}

func TestQuickConvEquivalence(t *testing.T) {
	prop := func(seed uint64) bool {
		rng := newPRNG(seed)
		in := NewTensor(2, 3, 9, 9)
		for i := range in.Data {
			in.Data[i] = rng.float(1)
		}
		w := NewTensor(4, 3, 3, 3)
		for i := range w.Data {
			w.Data[i] = rng.float(1)
		}
		bias := []float32{0.1, -0.2, 0.3, 0}
		ref := Conv2D(ImplNaiveSerial, in, w, bias)
		for _, im := range Impls[1:] {
			got := Conv2D(im, in, w, bias)
			d, err := maxAbsDiff(ref, got)
			if err != nil || d > 1e-4 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
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
