package cnn

import (
	"fmt"

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

// NewNetwork builds a network with deterministic pseudo-random weights
// derived from seed (the course shipped fixed pre-trained weights; a
// seeded model plays that role here).
func NewNetwork(seed uint64) *Network {
	rng := newPRNG(seed)
	fill := func(t *Tensor, scale float32) {
		for i := range t.Data {
			t.Data[i] = rng.float(scale)
		}
	}
	fillB := func(n int, scale float32) []float32 {
		b := make([]float32, n)
		for i := range b {
			b[i] = rng.float(scale)
		}
		return b
	}
	nw := &Network{
		Conv1W: NewTensor(6, 1, 5, 5),
		Conv2W: NewTensor(16, 6, 5, 5),
		FC1W:   NewTensor(120, 16*4*4, 1, 1),
		FC2W:   NewTensor(NumClasses, 120, 1, 1),
	}
	fill(nw.Conv1W, 0.4)
	nw.Conv1B = fillB(6, 0.1)
	fill(nw.Conv2W, 0.2)
	nw.Conv2B = fillB(16, 0.1)
	fill(nw.FC1W, 0.1)
	nw.FC1B = fillB(120, 0.05)
	fill(nw.FC2W, 0.2)
	nw.FC2B = fillB(NumClasses, 0.05)
	return nw
}

// Forward runs inference on a batch using the selected implementation
// and returns the logits tensor (N, 10, 1, 1).
func (nw *Network) Forward(im Impl, in *Tensor) (*Tensor, error) {
	if in.C != 1 || in.H != InputH || in.W != InputW {
		return nil, fmt.Errorf("cnn: input must be Nx1x%dx%d, got %v", InputH, InputW, in.Shape())
	}
	x := Conv2D(im, in, nw.Conv1W, nw.Conv1B)
	x = ReLU(x)
	x = AvgPool2(x)
	x = Conv2D(im, x, nw.Conv2W, nw.Conv2B)
	x = ReLU(x)
	x = AvgPool2(x)
	x = FullyConnected(im, x, nw.FC1W, nw.FC1B)
	x = ReLU(x)
	x = FullyConnected(im, x, nw.FC2W, nw.FC2B)
	return x, nil
}

// Classify returns the predicted class per image.
func (nw *Network) Classify(im Impl, in *Tensor) ([]int, error) {
	logits, err := nw.Forward(im, in)
	if err != nil {
		return nil, err
	}
	return ArgMax(logits), nil
}

// Accuracy runs inference and compares predictions with labels.
func (nw *Network) Accuracy(im Impl, in *Tensor, labels []int32) (float64, error) {
	if in.N != len(labels) {
		return 0, fmt.Errorf("cnn: %d images but %d labels", in.N, len(labels))
	}
	preds, err := nw.Classify(im, in)
	if err != nil {
		return 0, err
	}
	correct := 0
	for i, p := range preds {
		if int32(p) == labels[i] {
			correct++
		}
	}
	return float64(correct) / float64(len(labels)), nil
}

// Model dataset names inside the h5lite file (the reproduction's
// model.hdf5).
const (
	dsConv1W = "conv1/weights"
	dsConv1B = "conv1/bias"
	dsConv2W = "conv2/weights"
	dsConv2B = "conv2/bias"
	dsFC1W   = "fc1/weights"
	dsFC1B   = "fc1/bias"
	dsFC2W   = "fc2/weights"
	dsFC2B   = "fc2/bias"
)

// SaveModel serializes the weights as an h5lite file (model.hdf5).
func (nw *Network) SaveModel() ([]byte, error) {
	f := h5lite.NewFile()
	add := func(name string, t *Tensor) error {
		return f.AddFloat32(name, t.Shape(), t.Data)
	}
	addB := func(name string, b []float32) error {
		return f.AddFloat32(name, []int{len(b)}, b)
	}
	for _, step := range []error{
		add(dsConv1W, nw.Conv1W), addB(dsConv1B, nw.Conv1B),
		add(dsConv2W, nw.Conv2W), addB(dsConv2B, nw.Conv2B),
		add(dsFC1W, nw.FC1W), addB(dsFC1B, nw.FC1B),
		add(dsFC2W, nw.FC2W), addB(dsFC2B, nw.FC2B),
	} {
		if step != nil {
			return nil, step
		}
	}
	return f.Encode(), nil
}

// LoadModel reads a model.hdf5 produced by SaveModel.
func LoadModel(data []byte) (*Network, error) {
	f, err := h5lite.Decode(data)
	if err != nil {
		return nil, err
	}
	get4 := func(name string) (*Tensor, error) {
		d, err := f.Get(name)
		if err != nil {
			return nil, err
		}
		vals, err := d.Float32s()
		if err != nil {
			return nil, err
		}
		s := d.Shape
		switch len(s) {
		case 4:
			t := NewTensor(s[0], s[1], s[2], s[3])
			copy(t.Data, vals)
			return t, nil
		case 2:
			t := NewTensor(s[0], s[1], 1, 1)
			copy(t.Data, vals)
			return t, nil
		default:
			return nil, fmt.Errorf("cnn: dataset %q has rank %d", name, len(s))
		}
	}
	getB := func(name string) ([]float32, error) {
		d, err := f.Get(name)
		if err != nil {
			return nil, err
		}
		return d.Float32s()
	}
	nw := &Network{}
	if nw.Conv1W, err = get4(dsConv1W); err != nil {
		return nil, err
	}
	if nw.Conv1B, err = getB(dsConv1B); err != nil {
		return nil, err
	}
	if nw.Conv2W, err = get4(dsConv2W); err != nil {
		return nil, err
	}
	if nw.Conv2B, err = getB(dsConv2B); err != nil {
		return nil, err
	}
	if nw.FC1W, err = get4(dsFC1W); err != nil {
		return nil, err
	}
	if nw.FC1B, err = getB(dsFC1B); err != nil {
		return nil, err
	}
	if nw.FC2W, err = get4(dsFC2W); err != nil {
		return nil, err
	}
	if nw.FC2B, err = getB(dsFC2B); err != nil {
		return nil, err
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
	imgs := NewTensor(di.Shape[0], di.Shape[1], di.Shape[2], di.Shape[3])
	copy(imgs.Data, vals)
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
