package h5lite

import (
	"hash/crc32"
	"strings"
	"testing"
)

func crc32Checksum(b []byte) uint32 { return crc32.ChecksumIEEE(b) }

func TestDTypeStringsAndSizes(t *testing.T) {
	cases := map[DType][2]any{
		Float32:  {"float32", 4},
		Float64:  {"float64", 8},
		Int32:    {"int32", 4},
		Uint8:    {"uint8", 1},
		DType(9): {"DType(9)", 0},
	}
	for d, want := range cases {
		if d.String() != want[0].(string) {
			t.Errorf("%d.String() = %q", d, d.String())
		}
		if d.Size() != want[1].(int) {
			t.Errorf("%d.Size() = %d", d, d.Size())
		}
	}
}

func TestBadDatasetNames(t *testing.T) {
	f := NewFile()
	if err := f.AddFloat32("", []int{1}, []float32{1}); err == nil {
		t.Error("empty name accepted")
	}
	long := strings.Repeat("x", 70000)
	if err := f.AddFloat32(long, []int{1}, []float32{1}); err == nil {
		t.Error("oversized name accepted")
	}
}

func TestDecodeBadDtypeAndDims(t *testing.T) {
	f := NewFile()
	f.AddInt32("x", []int{4}, []int32{1, 2, 3, 4})
	enc := f.Encode()
	// Locate the dtype byte: magic(7) + count(4) + namelen(2) + "x"(1).
	idx := 7 + 4 + 2 + 1
	bad := append([]byte(nil), enc...)
	bad[idx] = 99 // invalid dtype; CRC must be fixed to reach the check
	patchCRC(bad)
	if _, err := Decode(bad); err == nil {
		t.Error("invalid dtype accepted")
	}
}

// patchCRC rewrites the trailing checksum after a deliberate mutation.
func patchCRC(b []byte) {
	body := b[:len(b)-4]
	c := crc32Checksum(body)
	b[len(b)-4] = byte(c)
	b[len(b)-3] = byte(c >> 8)
	b[len(b)-2] = byte(c >> 16)
	b[len(b)-1] = byte(c >> 24)
}
