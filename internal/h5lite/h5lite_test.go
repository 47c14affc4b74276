package h5lite

import (
	"bytes"
	"errors"
	"math"
	"testing"
	"testing/quick"
)

func TestRoundTripFloat32(t *testing.T) {
	f := NewFile()
	data := []float32{1, -2.5, 3.25, 0, math.MaxFloat32}
	if err := f.AddFloat32("model/conv1/weights", []int{5}, data); err != nil {
		t.Fatal(err)
	}
	enc := f.Encode()
	dec, err := Decode(enc)
	if err != nil {
		t.Fatal(err)
	}
	d, err := dec.Get("model/conv1/weights")
	if err != nil {
		t.Fatal(err)
	}
	got, err := d.Float32s()
	if err != nil {
		t.Fatal(err)
	}
	for i := range data {
		if got[i] != data[i] {
			t.Fatalf("got[%d] = %v, want %v", i, got[i], data[i])
		}
	}
}

func TestRoundTripMultipleDatasets(t *testing.T) {
	f := NewFile()
	f.AddFloat32("w", []int{2, 3}, []float32{1, 2, 3, 4, 5, 6})
	f.AddInt32("labels", []int{4}, []int32{0, 9, -1, 7})
	f.AddInt32("pixels", []int{2, 2, 2}, []int32{1, 2, 3, 4, 5, 6, 7, 8})
	dec, err := Decode(f.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if names := dec.Names(); len(names) != 3 || names[0] != "labels" {
		t.Fatalf("names = %v", names)
	}
	lab, _ := dec.Get("labels")
	vals, err := lab.Int32s()
	if err != nil || vals[2] != -1 {
		t.Fatalf("labels = %v, %v", vals, err)
	}
	pix, _ := dec.Get("pixels")
	if pix.Len() != 8 || len(pix.Shape) != 3 {
		t.Fatalf("pixels = %+v", pix)
	}
	b, err := pix.Int32s()
	if err != nil || b[7] != 8 {
		t.Fatalf("pixel data = %v, %v", b, err)
	}
}

func TestShapeValidation(t *testing.T) {
	f := NewFile()
	if err := f.AddFloat32("x", []int{2, 2}, []float32{1, 2, 3}); !errors.Is(err, ErrBadShape) {
		t.Errorf("mismatched shape: %v", err)
	}
	if err := f.AddFloat32("x", []int{0}, nil); !errors.Is(err, ErrBadShape) {
		t.Errorf("zero dim: %v", err)
	}
	if err := f.AddFloat32("x", []int{-1}, []float32{1}); !errors.Is(err, ErrBadShape) {
		t.Errorf("negative dim: %v", err)
	}
}

func TestDuplicateName(t *testing.T) {
	f := NewFile()
	f.AddFloat32("x", []int{1}, []float32{1})
	if err := f.AddInt32("x", []int{1}, []int32{1}); !errors.Is(err, ErrDupDataset) {
		t.Errorf("duplicate: %v", err)
	}
}

func TestWrongTypeAccessors(t *testing.T) {
	f := NewFile()
	f.AddFloat32("x", []int{1}, []float32{1})
	d, _ := f.Get("x")
	if _, err := d.Int32s(); err == nil {
		t.Error("Int32s on float32 dataset succeeded")
	}
}

func TestGetMissing(t *testing.T) {
	f := NewFile()
	if _, err := f.Get("nope"); !errors.Is(err, ErrNoDataset) {
		t.Errorf("missing dataset: %v", err)
	}
}

func TestDecodeRejectsCorruption(t *testing.T) {
	f := NewFile()
	f.AddFloat32("x", []int{4}, []float32{1, 2, 3, 4})
	enc := f.Encode()

	if _, err := Decode([]byte("not even close")); !errors.Is(err, ErrBadMagic) {
		t.Errorf("bad magic: %v", err)
	}
	// Flip a payload byte: CRC must catch it.
	bad := append([]byte(nil), enc...)
	bad[len(bad)-10] ^= 0xff
	if _, err := Decode(bad); !errors.Is(err, ErrCorrupt) {
		t.Errorf("bit flip: %v", err)
	}
	// Truncate.
	if _, err := Decode(enc[:len(enc)-5]); err == nil {
		t.Error("truncated file accepted")
	}
	// Trailing garbage breaks the checksum.
	if _, err := Decode(append(append([]byte(nil), enc...), 0, 1, 2)); !errors.Is(err, ErrCorrupt) {
		t.Errorf("trailing bytes: %v", err)
	}
}

func TestEncodeDeterministic(t *testing.T) {
	mk := func() []byte {
		f := NewFile()
		f.AddFloat32("b", []int{1}, []float32{2})
		f.AddFloat32("a", []int{1}, []float32{1})
		return f.Encode()
	}
	if !bytes.Equal(mk(), mk()) {
		t.Error("encoding is not deterministic")
	}
}

func TestQuickRoundTrip(t *testing.T) {
	prop := func(vals []float32, labels []int32) bool {
		if len(vals) == 0 {
			vals = []float32{0}
		}
		if len(labels) == 0 {
			labels = []int32{0}
		}
		for i, v := range vals {
			if v != v { // NaN compares unequal; normalize for the check
				vals[i] = 0
			}
		}
		f := NewFile()
		if err := f.AddFloat32("v", []int{len(vals)}, vals); err != nil {
			return false
		}
		if err := f.AddInt32("l", []int{len(labels)}, labels); err != nil {
			return false
		}
		dec, err := Decode(f.Encode())
		if err != nil {
			return false
		}
		dv, _ := dec.Get("v")
		gotV, err := dv.Float32s()
		if err != nil {
			return false
		}
		for i := range vals {
			if gotV[i] != vals[i] {
				return false
			}
		}
		dl, _ := dec.Get("l")
		gotL, err := dl.Int32s()
		if err != nil {
			return false
		}
		for i := range labels {
			if gotL[i] != labels[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
