// Package h5lite is a compact self-describing binary container for named
// n-dimensional arrays. It stands in for the HDF5 files the course
// project used ("The project uses the HDF5 format to store the neural
// network's model and test data files", paper §V footnote): the
// simulated ece408 binary loads its weights and test batches from
// h5lite files exactly the way the real one loaded .hdf5.
//
// Layout (little endian):
//
//	magic   "H5LITE\x01"
//	uint32  dataset count
//	per dataset:
//	    uint16 name length, name bytes (UTF-8)
//	    uint8  dtype (0 float32, 1 float64, 2 int32, 3 uint8)
//	    uint8  rank
//	    rank × uint64 dims
//	    payload (dtype-sized elements, row major)
//	uint32  IEEE CRC-32 of everything above
package h5lite

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"sort"
)

// DType enumerates element types.
type DType uint8

// Supported element types.
const (
	Float32 DType = iota
	Float64
	Int32
	Uint8
)

// Size returns the element size in bytes.
func (d DType) Size() int {
	switch d {
	case Float32, Int32:
		return 4
	case Float64:
		return 8
	case Uint8:
		return 1
	default:
		return 0
	}
}

func (d DType) String() string {
	switch d {
	case Float32:
		return "float32"
	case Float64:
		return "float64"
	case Int32:
		return "int32"
	case Uint8:
		return "uint8"
	default:
		return fmt.Sprintf("DType(%d)", uint8(d))
	}
}

// Errors reported by the package.
var (
	ErrBadMagic   = errors.New("h5lite: bad magic")
	ErrCorrupt    = errors.New("h5lite: corrupt file")
	ErrNoDataset  = errors.New("h5lite: no such dataset")
	ErrBadShape   = errors.New("h5lite: shape/payload mismatch")
	ErrDupDataset = errors.New("h5lite: duplicate dataset name")
)

var magic = []byte("H5LITE\x01")

// Dataset is one named array.
type Dataset struct {
	Name  string
	Dtype DType
	Shape []int
	// Raw holds the little-endian payload. In a decoded file it is a
	// view into the decoded bytes, with no spare capacity.
	Raw []byte
}

// Len returns the element count implied by Shape.
func (d *Dataset) Len() int {
	n := 1
	for _, s := range d.Shape {
		n *= s
	}
	return n
}

// Float32s decodes the payload as []float32 (dtype must be Float32).
func (d *Dataset) Float32s() ([]float32, error) {
	if d.Dtype != Float32 {
		return nil, fmt.Errorf("h5lite: dataset %q is %s, not float32", d.Name, d.Dtype)
	}
	out := make([]float32, d.Len())
	for i := range out {
		out[i] = math.Float32frombits(binary.LittleEndian.Uint32(d.Raw[i*4:]))
	}
	return out, nil
}

// Int32s decodes the payload as []int32.
func (d *Dataset) Int32s() ([]int32, error) {
	if d.Dtype != Int32 {
		return nil, fmt.Errorf("h5lite: dataset %q is %s, not int32", d.Name, d.Dtype)
	}
	out := make([]int32, d.Len())
	for i := range out {
		out[i] = int32(binary.LittleEndian.Uint32(d.Raw[i*4:]))
	}
	return out, nil
}

// File is a collection of named datasets.
type File struct {
	datasets map[string]*Dataset
}

// NewFile returns an empty file.
func NewFile() *File { return &File{datasets: map[string]*Dataset{}} }

// AddFloat32 stores data under name with the given shape.
func (f *File) AddFloat32(name string, shape []int, data []float32) error {
	if err := checkShape(shape, len(data)); err != nil {
		return fmt.Errorf("%w (dataset %q)", err, name)
	}
	raw := make([]byte, len(data)*4)
	for i, v := range data {
		binary.LittleEndian.PutUint32(raw[i*4:], math.Float32bits(v))
	}
	return f.add(&Dataset{Name: name, Dtype: Float32, Shape: append([]int(nil), shape...), Raw: raw})
}

// AddInt32 stores int32 data.
func (f *File) AddInt32(name string, shape []int, data []int32) error {
	if err := checkShape(shape, len(data)); err != nil {
		return fmt.Errorf("%w (dataset %q)", err, name)
	}
	raw := make([]byte, len(data)*4)
	for i, v := range data {
		binary.LittleEndian.PutUint32(raw[i*4:], uint32(v))
	}
	return f.add(&Dataset{Name: name, Dtype: Int32, Shape: append([]int(nil), shape...), Raw: raw})
}

func checkShape(shape []int, n int) error {
	prod := 1
	for _, s := range shape {
		if s <= 0 {
			return fmt.Errorf("%w: dimension %d", ErrBadShape, s)
		}
		prod *= s
	}
	if prod != n {
		return fmt.Errorf("%w: shape %v implies %d elements, got %d", ErrBadShape, shape, prod, n)
	}
	return nil
}

func (f *File) add(d *Dataset) error {
	if d.Name == "" || len(d.Name) > 65535 {
		return fmt.Errorf("h5lite: invalid dataset name %q", d.Name)
	}
	if _, ok := f.datasets[d.Name]; ok {
		return fmt.Errorf("%w: %q", ErrDupDataset, d.Name)
	}
	f.datasets[d.Name] = d
	return nil
}

// Get returns the named dataset.
func (f *File) Get(name string) (*Dataset, error) {
	d, ok := f.datasets[name]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNoDataset, name)
	}
	return d, nil
}

// Names lists dataset names, sorted.
func (f *File) Names() []string {
	out := make([]string, 0, len(f.datasets))
	for n := range f.datasets {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Encode serializes the file.
func (f *File) Encode() []byte {
	var buf bytes.Buffer
	buf.Write(magic)
	writeU32 := func(v uint32) {
		var b [4]byte
		binary.LittleEndian.PutUint32(b[:], v)
		buf.Write(b[:])
	}
	writeU32(uint32(len(f.datasets)))
	for _, name := range f.Names() {
		d := f.datasets[name]
		var nl [2]byte
		binary.LittleEndian.PutUint16(nl[:], uint16(len(d.Name)))
		buf.Write(nl[:])
		buf.WriteString(d.Name)
		buf.WriteByte(byte(d.Dtype))
		buf.WriteByte(byte(len(d.Shape)))
		for _, dim := range d.Shape {
			var b [8]byte
			binary.LittleEndian.PutUint64(b[:], uint64(dim))
			buf.Write(b[:])
		}
		buf.Write(d.Raw)
	}
	writeU32(crc32.ChecksumIEEE(buf.Bytes()))
	return buf.Bytes()
}

// Decode parses a serialized file. Each dataset's Raw is a view into
// data, not a copy: the caller must not write data while the File or
// anything holding a Raw is in use. Float32s and Int32s copy out.
func Decode(data []byte) (*File, error) {
	if len(data) < len(magic)+8 {
		return nil, ErrBadMagic
	}
	if !bytes.Equal(data[:len(magic)], magic) {
		return nil, ErrBadMagic
	}
	body, crcBytes := data[:len(data)-4], data[len(data)-4:]
	if crc32.ChecksumIEEE(body) != binary.LittleEndian.Uint32(crcBytes) {
		return nil, fmt.Errorf("%w: checksum mismatch", ErrCorrupt)
	}
	// rest is what is left to parse; next takes n bytes off its front,
	// or reports that fewer remain.
	rest := body[len(magic):]
	next := func(n uint64) ([]byte, bool) {
		if n > uint64(len(rest)) {
			return nil, false
		}
		b := rest[:n:n]
		rest = rest[n:]
		return b, true
	}
	b, ok := next(4)
	if !ok {
		return nil, fmt.Errorf("%w: truncated header", ErrCorrupt)
	}
	count := binary.LittleEndian.Uint32(b)
	if count > 1<<20 {
		return nil, fmt.Errorf("%w: implausible dataset count %d", ErrCorrupt, count)
	}
	f := NewFile()
	for i := uint32(0); i < count; i++ {
		b, ok := next(2)
		if !ok {
			return nil, fmt.Errorf("%w: truncated dataset %d", ErrCorrupt, i)
		}
		nameBytes, ok := next(uint64(binary.LittleEndian.Uint16(b)))
		if !ok {
			return nil, fmt.Errorf("%w: truncated name", ErrCorrupt)
		}
		meta, ok := next(2)
		if !ok {
			return nil, fmt.Errorf("%w: truncated metadata", ErrCorrupt)
		}
		dtype, rank := DType(meta[0]), int(meta[1])
		if dtype.Size() == 0 {
			return nil, fmt.Errorf("%w: bad dtype %d", ErrCorrupt, meta[0])
		}
		dims, ok := next(8 * uint64(rank))
		if !ok {
			return nil, fmt.Errorf("%w: truncated shape", ErrCorrupt)
		}
		shape := make([]int, rank)
		elems := 1
		for j := range shape {
			dim := binary.LittleEndian.Uint64(dims[8*j:])
			if dim == 0 || dim > 1<<40 {
				return nil, fmt.Errorf("%w: bad dimension %d", ErrCorrupt, dim)
			}
			// Checked before multiplying, so the product cannot wrap.
			if dim > 1<<34/uint64(elems) {
				return nil, fmt.Errorf("%w: dataset too large", ErrCorrupt)
			}
			shape[j] = int(dim)
			elems *= int(dim)
		}
		// The shape is the file's claim; the bytes left are the fact.
		payload, ok := next(uint64(elems) * uint64(dtype.Size()))
		if !ok {
			return nil, fmt.Errorf("%w: truncated payload for %q", ErrCorrupt, nameBytes)
		}
		if err := f.add(&Dataset{Name: string(nameBytes), Dtype: dtype, Shape: shape, Raw: payload}); err != nil {
			return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
		}
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrCorrupt, len(rest))
	}
	return f, nil
}
