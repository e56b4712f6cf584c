package deser

import "encoding/binary"

// decodeBlocksBMI2 is decodeBlocks in amd64 assembly (packed_amd64.s). Per
// block, four 16-byte loads and PMOVMSKB gather the continuation bits; per
// element, TZCNT/BLSR take the varint's end from the bitmap and one PEXT
// under a BZHI-cut 0x7f mask packs its 7-bit groups.
//
//go:noescape
func decodeBlocksBMI2(out []byte, o int, src []byte, start int, w uint32, zig bool) (int, int)

// decodeBlocksAVX512 is decodeBlocks in AVX-512 VBMI2 assembly. Per block,
// VPMOVB2M gives the stop bits and VPCOMPRESSB packs every varint's end; per
// group of eight varints, one VPERMI2B over [previous block ‖ block] puts
// each varint in its own qword, and five vector steps pack the 7-bit groups
// of all eight. A block holding a varint of more than 8 bytes runs the BMI2
// element loop.
//
//go:noescape
func decodeBlocksAVX512(out []byte, o int, src []byte, start int, w uint32, zig bool) (int, int)

// cpuid executes CPUID with the given leaf and subleaf.
func cpuid(leaf, subleaf uint32) (eax, ebx, ecx, edx uint32)

// xgetbv executes XGETBV: the extended control register index (0 = XCR0,
// the state components the OS saves on a context switch).
func xgetbv(index uint32) (eax, edx uint32)

func init() {
	if !bmi2Fast() {
		return
	}
	if avx512VBMI2() {
		asmKernels = append(asmKernels, blockDecoder{"avx512", decodeBlocksAVX512})
	}
	asmKernels = append(asmKernels, blockDecoder{"bmi2", decodeBlocksBMI2})
	blockKernel = asmKernels[0].decode
}

// bmi2Fast reports whether the CPU has BMI1 and BMI2 and runs PEXT in
// hardware. AMD before family 0x19 (Zen 3), and Hygon (family 0x18, Zen
// based), microcode PEXT at tens of cycles per instruction, slower than the
// portable loop.
func bmi2Fast() bool {
	maxLeaf, b, c, d := cpuid(0, 0)
	if maxLeaf < 7 {
		return false
	}
	if _, ebx7, _, _ := cpuid(7, 0); ebx7&(1<<3) == 0 || ebx7&(1<<8) == 0 {
		return false
	}
	var vendor [12]byte
	binary.LittleEndian.PutUint32(vendor[0:], b)
	binary.LittleEndian.PutUint32(vendor[4:], d)
	binary.LittleEndian.PutUint32(vendor[8:], c)
	if v := string(vendor[:]); v != "AuthenticAMD" && v != "HygonGenuine" {
		return true
	}
	eax1, _, _, _ := cpuid(1, 0)
	family := eax1 >> 8 & 0xf
	if family == 0xf {
		family += eax1 >> 20 & 0xff
	}
	return family >= 0x19
}

// avx512VBMI2 reports whether the CPU has AVX512F, AVX512BW, AVX512_VBMI,
// AVX512_VBMI2 and POPCNT, and whether the OS saves the opmask and ZMM
// registers on a context switch (XCR0 bits 1-2 and 5-7, read with XGETBV
// once CPUID says OSXSAVE). The caller has checked leaf 7 exists.
func avx512VBMI2() bool {
	_, _, ecx1, _ := cpuid(1, 0)
	const osxsave, popcnt = 1 << 27, 1 << 23
	if ecx1&osxsave == 0 || ecx1&popcnt == 0 {
		return false
	}
	if xcr0, _ := xgetbv(0); xcr0&0xe6 != 0xe6 {
		return false
	}
	_, ebx7, ecx7, _ := cpuid(7, 0)
	const avx512f, avx512bw = 1 << 16, 1 << 30
	const vbmi, vbmi2 = 1 << 1, 1 << 6
	return ebx7&avx512f != 0 && ebx7&avx512bw != 0 && ecx7&vbmi != 0 && ecx7&vbmi2 != 0
}
