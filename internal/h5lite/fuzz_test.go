package h5lite

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"runtime"
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

// FuzzDecode feeds arbitrary bytes to Decode, which parses data files a
// student's command line names. Whatever the input, it must not panic,
// must not allocate more than the input could hold, and a file it accepts
// must survive an encode/decode round trip unchanged.
func FuzzDecode(f *testing.F) {
	file := NewFile()
	if err := file.AddFloat32("x", []int{2, 2}, []float32{1, 2, 3, 4}); err != nil {
		f.Fatal(err)
	}
	if err := file.AddInt32("labels", []int{3}, []int32{7, 8, 9}); err != nil {
		f.Fatal(err)
	}
	f.Add(file.Encode())
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
		enc := got.Encode()
		again, err := Decode(enc)
		if err != nil || !bytes.Equal(again.Encode(), enc) {
			t.Fatalf("accepted %q, whose encoding %q does not round-trip (%v)", data, enc, err)
		}
	})
}
