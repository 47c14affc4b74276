package h5lite

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"runtime"
	"slices"
	"testing"
)

// sealed frames a body after the magic as a file: the magic, the body
// and a valid CRC, so Decode gets past the checksum.
func sealed(body []byte) []byte {
	out := append(append([]byte(nil), magic...), body...)
	return binary.LittleEndian.AppendUint32(out, crc32.ChecksumIEEE(out))
}

// header is one dataset header with an empty payload: a name, a dtype
// and dims.
func header(name string, dtype DType, dims ...uint64) []byte {
	b := binary.LittleEndian.AppendUint32(nil, 1)
	b = binary.LittleEndian.AppendUint16(b, uint16(len(name)))
	b = append(append(b, name...), byte(dtype), byte(len(dims)))
	for _, d := range dims {
		b = binary.LittleEndian.AppendUint64(b, d)
	}
	return b
}

// TestDecodeRefusesPayloadLargerThanFile is the 36-byte file that claims
// a 2^17 × 2^17 float64 dataset: 128 GiB the runtime cannot allocate,
// which used to kill the process decoding it. It must be refused as
// corrupt without allocating the claim; so must dims whose product wraps.
func TestDecodeRefusesPayloadLargerThanFile(t *testing.T) {
	huge := sealed(header("x", Float64, 1<<17, 1<<17))
	if len(huge) != 36 {
		t.Fatalf("fixture is %d bytes", len(huge))
	}
	wraps := sealed(header("x", Uint8, 1<<34, 1<<40))
	for name, file := range map[string][]byte{"128 GiB claim": huge, "wrapping dims": wraps} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := Decode(file)
		runtime.ReadMemStats(&after)
		if !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: err = %v, want ErrCorrupt", name, err)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
			t.Errorf("%s: decoding allocated %d bytes", name, grew)
		}
	}
}

// oddOffsetFile is a file of one float32 dataset whose payload starts at
// an odd offset: 7 bytes of magic, a 4-byte count, a 2-byte name length,
// the 2-byte name, dtype and rank, and one 8-byte dim put it at byte 25.
func oddOffsetFile(t testing.TB) []byte {
	file := NewFile()
	if err := file.AddFloat32("xy", []int{3}, []float32{1.5, -2, 3.25}); err != nil {
		t.Fatal(err)
	}
	return file.Encode()
}

// FuzzDecode feeds arbitrary bytes to Decode, which parses data files a
// student's command line names. Whatever the input, it must not panic,
// must not allocate more than the input could hold, must hand out each
// payload as a view into the input, whose values Float32s and Int32s
// read at any alignment, and a file it accepts must survive an
// encode/decode round trip unchanged.
func FuzzDecode(f *testing.F) {
	file := NewFile()
	if err := file.AddFloat32("x", []int{2, 2}, []float32{1, 2, 3, 4}); err != nil {
		f.Fatal(err)
	}
	if err := file.AddInt32("labels", []int{3}, []int32{7, 8, 9}); err != nil {
		f.Fatal(err)
	}
	f.Add(file.Encode())
	f.Add(oddOffsetFile(f))
	f.Add(sealed(header("x", Float64, 1<<17, 1<<17)))
	f.Add(sealed(header("x", Uint8, 1<<34, 1<<40)))
	f.Add([]byte("not even close"))
	f.Fuzz(func(t *testing.T, data []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		got, err := Decode(data)
		runtime.ReadMemStats(&after)
		if grew := after.TotalAlloc - before.TotalAlloc; grew > uint64(8*len(data))+1<<20 {
			t.Fatalf("decoding %d bytes allocated %d", len(data), grew)
		}
		if err != nil {
			return
		}
		for _, name := range got.Names() {
			d, _ := got.Get(name)
			if len(d.Raw) > 0 && !within(d.Raw, data) {
				t.Fatalf("dataset %q's payload is not a view into the input", name)
			}
			var n int
			switch d.Dtype {
			case Float32:
				v, err := d.Float32s()
				if err != nil {
					t.Fatal(err)
				}
				n = len(v)
			case Int32:
				v, err := d.Int32s()
				if err != nil {
					t.Fatal(err)
				}
				n = len(v)
			default:
				continue
			}
			if n != d.Len() || 4*n != len(d.Raw) {
				t.Fatalf("dataset %q: %d values from %d bytes, shape %v", name, n, len(d.Raw), d.Shape)
			}
		}
		enc := got.Encode()
		again, err := Decode(enc)
		if err != nil || !bytes.Equal(again.Encode(), enc) {
			t.Fatalf("accepted %q, whose encoding %q does not round-trip (%v)", data, enc, err)
		}
	})
}

// within reports whether sub lies inside buf's bytes.
func within(sub, buf []byte) bool {
	for i := range buf {
		if &buf[i] == &sub[0] {
			return len(buf)-i >= len(sub)
		}
	}
	return false
}

// TestDecodeViewsPayloads pins what the worker's decode relies on: a
// payload is a view into the decoded bytes, with no capacity past its
// end, and Float32s reads one that starts at an odd offset exactly.
func TestDecodeViewsPayloads(t *testing.T) {
	data := oddOffsetFile(t)
	f, err := Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	d, err := f.Get("xy")
	if err != nil {
		t.Fatal(err)
	}
	if &d.Raw[0] != &data[25] || cap(d.Raw) != len(d.Raw) {
		t.Fatalf("payload is not data[25:37:37]")
	}
	got, err := d.Float32s()
	if err != nil {
		t.Fatal(err)
	}
	if want := []float32{1.5, -2, 3.25}; !slices.Equal(got, want) {
		t.Fatalf("Float32s = %v, want %v", got, want)
	}
}
