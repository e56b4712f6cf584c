package deser

import "encoding/binary"

// decodeBlocksBMI2 is decodeBlocks in amd64 assembly (packed_amd64.s). Per
// block, four 16-byte loads and PMOVMSKB gather the continuation bits; per
// element, TZCNT/BLSR take the varint's end from the bitmap and one PEXT
// under a BZHI-cut 0x7f mask packs its 7-bit groups.
//
//go:noescape
func decodeBlocksBMI2(out []byte, o int, src []byte, start int, w uint32, zig bool) (int, int)

// cpuid executes CPUID with the given leaf and subleaf.
func cpuid(leaf, subleaf uint32) (eax, ebx, ecx, edx uint32)

func init() {
	if bmi2Fast() {
		blockKernel = decodeBlocksBMI2
	}
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
