package deser

import (
	"encoding/binary"
	"math/bits"
	"slices"

	"dpurpc/internal/wire"
)

// Packed varint decoding, block by block.
//
// Both implementations of decodeBlocks share one contract: starting at the
// varint that begins at src[start], decode whole 64-byte blocks (bases at
// multiples of 64 from src[0], the first one the block holding start) while
// at least blockSpan bytes remain past the block base, storing each element
// at out[o:o+w] in its arena form. Each stop bit (a clear continuation bit)
// in a block ends one varint, so the block's stop-bit bitmap hands every
// element its end without waiting for the previous element's decode. A
// varint of 1-10 bytes decodes in the block loop; one that wire.Uvarint
// would reject (longer than 10 bytes, or a 10th byte above 1) stops it
// early. decodeBlocks returns the next slot offset and the start of the
// first varint it did not decode.
//
// The 8 bytes past the last block keep every load inside src: a varint is
// decoded only once its last byte turns up in a block's bitmap, so
// end <= base+63, and every byte read for it lies between its start and
// end+7. The caller guarantees cap(out) >= o + (len(src)-start)*w, which
// covers the stores because every element takes at least one wire byte.
//
// blockKernel is the fastest assembly implementation this CPU runs
// (asmKernels[0]), set at init; nil selects the portable loop,
// decodeBlocksGo.
var blockKernel func(out []byte, o int, src []byte, start int, w uint32, zig bool) (int, int)

// blockDecoder is one assembly implementation of decodeBlocks.
type blockDecoder struct {
	name   string
	decode func(out []byte, o int, src []byte, start int, w uint32, zig bool) (int, int)
}

// asmKernels lists the assembly implementations this CPU runs, fastest
// first: on amd64, "avx512" (AVX-512 VBMI2) and "bmi2" (packed_amd64.go).
var asmKernels []blockDecoder

// blockSpan is the tail a block needs past its base: the block plus one
// 8-byte load.
const blockSpan = 72

// Kernel names the packed-varint block decoder this process runs: "avx512"
// or "bmi2" for the amd64 assembly kernels, "portable" for the Go loop.
func Kernel() string {
	if len(asmKernels) > 0 {
		return asmKernels[0].name
	}
	return "portable"
}

// appendPackedVarints decodes the packed varint run src and appends each
// element to dst in its w-byte arena form (w = 1, 4 or 8): zigzag decoded
// when zig, then stored with writeSlot's bits, which narrow 32-bit kinds and
// normalize bools — the bits storedScalar gives. It reports false on a
// truncated or overlong varint.
//
// The block decoder takes every varint it can; a varint it stops at and the
// tail after the last whole block go through wire.Uvarint, which owns every
// malformed-input check.
func appendPackedVarints(dst, src []byte, w uint32, zig bool) ([]byte, bool) {
	// Each element takes at least one wire byte: reserve the worst case so
	// the stores below never reallocate.
	o := len(dst)
	dst = slices.Grow(dst, len(src)*int(w))
	out := dst[:cap(dst)]
	start := 0 // first byte of the next varint
	for start < len(src) {
		if len(src)-start&^63 >= blockSpan {
			if blockKernel != nil {
				o, start = blockKernel(out, o, src, start, w, zig)
			} else {
				o, start = decodeBlocksGo(out, o, src, start, w, zig)
			}
		}
		v, n := wire.Uvarint(src[start:])
		if n <= 0 {
			return dst, false
		}
		if zig {
			v = uint64(wire.DecodeZigZag(v))
		}
		writeSlot(out[o:o+int(w)], w, v)
		o += int(w)
		start += n
	}
	return dst[:o], true
}

// Word-at-a-time varint masks: the continuation bit and the seven data bits
// of every byte of a little-endian 8-byte load.
const (
	varintStops = 0x8080808080808080
	varintData  = 0x7f7f7f7f7f7f7f7f
)

// decodeBlocksGo is the portable decodeBlocks. Eight 8-byte loads gather a
// block's stop bits into one bitmap; each varint is then cut from one
// unaligned 8-byte load, masked up to its first stop bit, and its 7-bit
// groups are packed in three shift/mask steps. A 9- or 10-byte varint goes
// through wire.Uvarint, and stops the loop where that fails. Cutting varints
// word by word instead (advance past each word's last stop bit) chains every
// load on the previous word's decode and leaves a data-dependent inner loop
// every ~3 elements; on the ledger's payloads it ran 1.5x slower than this.
func decodeBlocksGo(out []byte, o int, src []byte, start int, w uint32, zig bool) (int, int) {
	for base := start &^ 63; len(src)-base >= blockSpan; base += 64 {
		var ends uint64
		for k := 0; k < 8; k++ {
			x := binary.LittleEndian.Uint64(src[base+8*k:])
			// Gather bit 7 of each byte (inverted) into one byte.
			ends |= (((^x >> 7) & 0x0101010101010101) * 0x0102040810204080 >> 56) << (8 * k)
		}
		if start > base {
			ends &^= 1<<(start-base) - 1
		}
		for ends != 0 {
			end := base + bits.TrailingZeros64(ends)
			ends &= ends - 1
			x := binary.LittleEndian.Uint64(src[start:])
			var v uint64
			if stops := ^x & varintStops; stops != 0 {
				v = x & (stops ^ (stops - 1)) & varintData
				v = v&0x007f007f007f007f | (v&0x7f007f007f007f00)>>1
				v = v&0x00003fff00003fff | (v&0x3fff00003fff0000)>>2
				v = v&0x000000000fffffff | (v&0x0fffffff00000000)>>4
			} else {
				var n int
				if v, n = wire.Uvarint(src[start:]); n <= 0 {
					return o, start
				}
			}
			if zig {
				v = uint64(wire.DecodeZigZag(v))
			}
			writeSlot(out[o:o+int(w)], w, v)
			o += int(w)
			start = end + 1
		}
	}
	return o, start
}

// varintCount returns the number of varints that end in b: its bytes with a
// clear continuation bit.
func varintCount(b []byte) int {
	n := 0
	for ; len(b) >= 8; b = b[8:] {
		n += bits.OnesCount64(^binary.LittleEndian.Uint64(b) & varintStops)
	}
	for _, c := range b {
		if c < 0x80 {
			n++
		}
	}
	return n
}
