package bzip2w

// bzip2 uses the MSB-first CRC-32 (polynomial 0x04C11DB7, init and xorout
// 0xFFFFFFFF, no bit reflection) — distinct from the IEEE CRC in
// hash/crc32, so it is implemented here.

var crcTable [256]uint32

func init() {
	const poly = 0x04c11db7
	for i := range crcTable {
		c := uint32(i) << 24
		for k := 0; k < 8; k++ {
			if c&0x80000000 != 0 {
				c = c<<1 ^ poly
			} else {
				c <<= 1
			}
		}
		crcTable[i] = c
	}
}

// crc32bz accumulates the bzip2 block CRC over p starting from crc
// (callers pass 0xFFFFFFFF initially and finalize with ^crc).
type blockCRC uint32

func newBlockCRC() blockCRC { return 0xffffffff }

func (c blockCRC) updateByte(b byte) blockCRC {
	v := uint32(c)
	return blockCRC(v<<8 ^ crcTable[byte(v>>24)^b])
}

func (c blockCRC) sum() uint32 { return ^uint32(c) }

// combineCRC folds a finished block CRC into the stream CRC the way the
// bzip2 footer requires.
func combineCRC(combined, block uint32) uint32 {
	return (combined<<1 | combined>>31) ^ block
}
