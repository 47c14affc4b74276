package cnn

import (
	"fmt"
	"slices"
	"sync"

	"rai/internal/h5lite"
	"rai/internal/vfs"
)

// Network is the fixed course network: a LeNet-style model over 28x28
// single-channel images.
//
//	input   1x28x28
//	conv1   6 filters 5x5   -> 6x24x24, ReLU
//	pool1   avg 2x2         -> 6x12x12
//	conv2   16 filters 5x5  -> 16x8x8, ReLU
//	pool2   avg 2x2         -> 16x4x4
//	fc1     120, ReLU
//	fc2     10 (logits)
type Network struct {
	Conv1W *Tensor // (6, 1, 5, 5)
	Conv1B []float32
	Conv2W *Tensor // (16, 6, 5, 5)
	Conv2B []float32
	FC1W   *Tensor // (120, 256, 1, 1)
	FC1B   []float32
	FC2W   *Tensor // (10, 120, 1, 1)
	FC2B   []float32
}

// Network geometry constants.
const (
	InputH     = 28
	InputW     = 28
	NumClasses = 10
)

// weighted describes one weighted layer of the network: its dataset
// names in model.hdf5, its weight shape (out, in, k, k) with a bias of
// length out, and the scales NewNetwork draws weights and bias from.
type weighted struct {
	wName, bName   string
	out, in, k     int
	wScale, bScale float32
}

// weightedLayers lists the network's weighted layers in Forward order.
var weightedLayers = [4]weighted{
	{"conv1/weights", "conv1/bias", 6, 1, 5, 0.4, 0.1},
	{"conv2/weights", "conv2/bias", 16, 6, 5, 0.2, 0.1},
	{"fc1/weights", "fc1/bias", 120, 16 * 4 * 4, 1, 0.1, 0.05},
	{"fc2/weights", "fc2/bias", NumClasses, 120, 1, 0.2, 0.05},
}

// param points at the weights and bias of one weighted layer.
type param struct {
	w **Tensor
	b *[]float32
}

// params returns the network's weights and biases in weightedLayers order.
func (nw *Network) params() [4]param {
	return [4]param{
		{&nw.Conv1W, &nw.Conv1B}, {&nw.Conv2W, &nw.Conv2B},
		{&nw.FC1W, &nw.FC1B}, {&nw.FC2W, &nw.FC2B},
	}
}

// NewNetwork builds a network with deterministic pseudo-random weights
// derived from seed (the course shipped fixed pre-trained weights; a
// seeded model plays that role here).
func NewNetwork(seed uint64) *Network {
	rng := newPRNG(seed)
	fill := func(vals []float32, scale float32) {
		for i := range vals {
			vals[i] = rng.float(scale)
		}
	}
	nw := &Network{}
	for i, p := range nw.params() {
		l := weightedLayers[i]
		*p.w = NewTensor(l.out, l.in, l.k, l.k)
		fill((*p.w).Data, l.wScale)
		*p.b = make([]float32, l.out)
		fill(*p.b, l.bScale)
	}
	return nw
}

// Forward runs inference on a batch using the selected implementation
// and returns the logits tensor (N, 10, 1, 1), which the caller owns.
func (nw *Network) Forward(im Impl, in *Tensor) (*Tensor, error) {
	s := scratchPool.Get().(*scratch)
	defer scratchPool.Put(s)
	logits, err := nw.forward(im, in, s)
	if err != nil {
		return nil, err
	}
	out := NewTensor(logits.N, logits.C, logits.H, logits.W)
	copy(out.Data, logits.Data)
	return out, nil
}

// scratch is one inference's working memory: each layer's output and
// the im2col patch buffers. The first inference at a shape sizes it, and
// later ones at that shape reuse it without allocating. Inferences in
// flight at once each take their own from scratchPool, so none shares a
// buffer with another.
type scratch struct {
	act  [6]Tensor // conv1, pool1, conv2, pool2, fc1, fc2
	cols patches
}

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

// out returns activation i shaped (n, c, h, w), its contents undefined.
func (s *scratch) out(i, n, c, h, w int) *Tensor {
	if n <= 0 || c <= 0 || h <= 0 || w <= 0 {
		panic(fmt.Sprintf("cnn: invalid tensor shape %dx%dx%dx%d", n, c, h, w))
	}
	t := &s.act[i]
	t.N, t.C, t.H, t.W = n, c, h, w
	t.Data = grow(t.Data, t.Len())
	return t
}

// forward runs the network on in with s as its working memory. The
// logits it returns live in s. It reads in and the weights and writes
// neither.
func (nw *Network) forward(im Impl, in *Tensor, s *scratch) (*Tensor, error) {
	if in.C != 1 || in.H != InputH || in.W != InputW {
		return nil, fmt.Errorf("cnn: input must be Nx1x%dx%d, got %v", InputH, InputW, in.Shape())
	}
	conv := func(i int, x, w *Tensor, b []float32) *Tensor {
		out := s.out(i, x.N, w.N, x.H-w.H+1, x.W-w.H+1)
		conv2D(im, x, w, b, out, &s.cols)
		return ReLU(out)
	}
	pool := func(i int, x *Tensor) *Tensor {
		out := s.out(i, x.N, x.C, x.H/2, x.W/2)
		avgPool2(x, out)
		return out
	}
	fc := func(i int, x, w *Tensor, b []float32) *Tensor {
		out := s.out(i, x.N, w.N, 1, 1)
		fullyConnected(im, x, w, b, out)
		return out
	}
	x := pool(1, conv(0, in, nw.Conv1W, nw.Conv1B))
	x = pool(3, conv(2, x, nw.Conv2W, nw.Conv2B))
	x = ReLU(fc(4, x, nw.FC1W, nw.FC1B))
	return fc(5, x, nw.FC2W, nw.FC2B), nil
}

// Classify returns the predicted class per image.
func (nw *Network) Classify(im Impl, in *Tensor) ([]int, error) {
	logits, err := nw.Forward(im, in)
	if err != nil {
		return nil, err
	}
	return ArgMax(logits), nil
}

// Accuracy runs inference and compares predictions with labels. At a
// shape it has run before, it allocates nothing.
func (nw *Network) Accuracy(im Impl, in *Tensor, labels []int32) (float64, error) {
	if in.N != len(labels) {
		return 0, fmt.Errorf("cnn: %d images but %d labels", in.N, len(labels))
	}
	s := scratchPool.Get().(*scratch)
	defer scratchPool.Put(s)
	logits, err := nw.forward(im, in, s)
	if err != nil {
		return 0, err
	}
	correct := 0
	for i, l := range labels {
		if int32(argMax(logits, i)) == l {
			correct++
		}
	}
	return float64(correct) / float64(len(labels)), nil
}

// SaveModel serializes the weights as an h5lite file (model.hdf5).
func (nw *Network) SaveModel() ([]byte, error) {
	f := h5lite.NewFile()
	for i, p := range nw.params() {
		l, w, b := weightedLayers[i], *p.w, *p.b
		if err := f.AddFloat32(l.wName, w.Shape(), w.Data); err != nil {
			return nil, err
		}
		if err := f.AddFloat32(l.bName, []int{len(b)}, b); err != nil {
			return nil, err
		}
	}
	return f.Encode(), nil
}

// LoadModel reads a model.hdf5 produced by SaveModel. Every dataset must
// have the course network's shape (fully connected weights may also be
// stored as rank 2), so a malformed model is an error here rather than an
// index out of range inside Forward. Each decoded slice becomes its
// tensor's storage as is.
func LoadModel(data []byte) (*Network, error) {
	f, err := h5lite.Decode(data)
	if err != nil {
		return nil, err
	}
	get := func(name string, want ...int) ([]float32, error) {
		d, err := f.Get(name)
		if err != nil {
			return nil, err
		}
		shape := d.Shape
		if len(want) == 4 && len(shape) == 2 {
			shape = []int{shape[0], shape[1], 1, 1}
		}
		if !slices.Equal(shape, want) {
			// A copy of want, so that want itself stays off the heap.
			return nil, fmt.Errorf("cnn: dataset %q has shape %v, want %v", name, d.Shape, slices.Clone(want))
		}
		return d.Float32s()
	}
	nw := &Network{}
	for i, p := range nw.params() {
		l := weightedLayers[i]
		w, err := get(l.wName, l.out, l.in, l.k, l.k)
		if err != nil {
			return nil, err
		}
		*p.w = &Tensor{N: l.out, C: l.in, H: l.k, W: l.k, Data: w}
		if *p.b, err = get(l.bName, l.out); err != nil {
			return nil, err
		}
	}
	return nw, nil
}

// Dataset is a batch of images with reference labels (test10.hdf5 /
// testfull.hdf5 in the paper's build files).
type Dataset struct {
	Images *Tensor
	Labels []int32
}

// Dataset names inside the h5lite file.
const (
	dsImages = "data/images"
	dsLabels = "data/labels"
)

// SynthesizeDataset generates n synthetic images from seed and labels
// them with the reference network's own predictions, so a correct
// implementation scores 100% accuracy and an incorrect one measurably
// less (the project's "maintain a target accuracy" requirement).
func SynthesizeDataset(nw *Network, seed uint64, n int) (*Dataset, error) {
	rng := newPRNG(seed)
	imgs := NewTensor(n, 1, InputH, InputW)
	for i := range imgs.Data {
		imgs.Data[i] = rng.float(1)
	}
	labels32, err := nw.Classify(ImplIm2col, imgs)
	if err != nil {
		return nil, err
	}
	labels := make([]int32, n)
	for i, l := range labels32 {
		labels[i] = int32(l)
	}
	return &Dataset{Images: imgs, Labels: labels}, nil
}

// Encode serializes the dataset as an h5lite file (test*.hdf5).
func (d *Dataset) Encode() ([]byte, error) {
	f := h5lite.NewFile()
	if err := f.AddFloat32(dsImages, d.Images.Shape(), d.Images.Data); err != nil {
		return nil, err
	}
	if err := f.AddInt32(dsLabels, []int{len(d.Labels)}, d.Labels); err != nil {
		return nil, err
	}
	return f.Encode(), nil
}

// DecodeDataset reads a dataset file.
func DecodeDataset(data []byte) (*Dataset, error) {
	f, err := h5lite.Decode(data)
	if err != nil {
		return nil, err
	}
	di, err := f.Get(dsImages)
	if err != nil {
		return nil, err
	}
	if len(di.Shape) != 4 {
		return nil, fmt.Errorf("cnn: images dataset has rank %d", len(di.Shape))
	}
	vals, err := di.Float32s()
	if err != nil {
		return nil, err
	}
	imgs := &Tensor{N: di.Shape[0], C: di.Shape[1], H: di.Shape[2], W: di.Shape[3], Data: vals}
	dl, err := f.Get(dsLabels)
	if err != nil {
		return nil, err
	}
	labels, err := dl.Int32s()
	if err != nil {
		return nil, err
	}
	if len(labels) != imgs.N {
		return nil, fmt.Errorf("cnn: %d labels for %d images", len(labels), imgs.N)
	}
	return &Dataset{Images: imgs, Labels: labels}, nil
}

// DataVolume builds the course /data volume the build specs read: the
// network seeded by seed as /data/model.hdf5, and the datasets of 10 and
// fullImages images synthesized from seeds seed+1 and seed+2 as
// /data/test10.hdf5 and /data/testfull.hdf5.
func DataVolume(seed uint64, fullImages int) (*vfs.FS, error) {
	nw := NewNetwork(seed)
	model, err := nw.SaveModel()
	if err != nil {
		return nil, err
	}
	fs := vfs.New()
	if err := fs.WriteFile("/data/model.hdf5", model); err != nil {
		return nil, err
	}
	for _, d := range []struct {
		path string
		seed uint64
		n    int
	}{
		{"/data/test10.hdf5", seed + 1, 10},
		{"/data/testfull.hdf5", seed + 2, fullImages},
	} {
		ds, err := SynthesizeDataset(nw, d.seed, d.n)
		if err != nil {
			return nil, err
		}
		blob, err := ds.Encode()
		if err != nil {
			return nil, err
		}
		if err := fs.WriteFile(d.path, blob); err != nil {
			return nil, err
		}
	}
	return fs, nil
}
