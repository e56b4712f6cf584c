#include "textflag.h"

// Both kernels share one body, decodeBlocks<>: CX selects the AVX-512 block
// loop (nonzero) or the BMI2 one, and the BMI2 element loops serve both.
//
// Registers: SI src, R10 len(src), R8 start of the next varint, R9 block
// base, DI next slot (&out[o]), BX the block's remaining stop bits, R11 the
// 0x7f data-bit mask, R13 zero, R14 the first block's entry mask, CX the
// kernel. Each (w, zig) form has its own loops, so the common path of an
// element (BMI2) or of a group (AVX-512) takes one taken branch. The element
// loops start 32-byte aligned (PCALIGN): unaligned, the AVX-512 kernel's
// long-varint blocks ran about 10% slower than the BMI2 kernel's on
// negative int64s.
//
// The AVX-512 loop also keeps: Z0 the previous block, Z1 the block, Z2 each
// varint's end and Z3 each varint's start (block offsets + 64, so that
// [Z0 ‖ Z1] is one 128-byte table and a start in the previous block is a
// valid index), Z5 the lane index of the current group of eight, R12 the
// varints left in the block, and the constants Z20-Z31 and K3 set up at
// entry.

// STOPBITS sets BX to the stop bits (inverted top bits) of the block at R9,
// cleared where R14 is, or ends the call when fewer than 72 bytes remain
// past R9.
#define STOPBITS \
	MOVQ     R10, AX; \
	SUBQ     R9, AX; \
	CMPQ     AX, $72; \
	JLT      done; \
	MOVOU    0(SI)(R9*1), X0; \
	MOVOU    16(SI)(R9*1), X1; \
	MOVOU    32(SI)(R9*1), X2; \
	MOVOU    48(SI)(R9*1), X3; \
	PMOVMSKB X0, AX; \
	PMOVMSKB X1, BX; \
	PMOVMSKB X2, DX; \
	PMOVMSKB X3, R15; \
	SHLQ     $16, BX; \
	SHLQ     $32, DX; \
	SHLQ     $48, R15; \
	ORQ      BX, AX; \
	ORQ      DX, R15; \
	ORQ      R15, AX; \
	ANDNQ    R14, AX, BX; \
	MOVQ     $-1, R14

// NEXT takes the next varint's last byte from BX into AX, or jumps to next
// when the block has no stop bit left, and decodes a varint of up to 8
// bytes into DX with one PEXT under a BZHI-cut mask, or jumps to long for a
// longer one.
#define NEXT(next, long) \
	TESTQ  BX, BX; \
	JZ     next; \
	TZCNTQ BX, AX; \
	BLSRQ  BX, BX; \
	ADDQ   R9, AX; \
	MOVQ   AX, DX; \
	SUBQ   R8, DX; \
	CMPQ   DX, $7; \
	JA     long; \
	LEAQ   8(DX*8), DX; \
	BZHIQ  DX, R11, DX; \
	MOVQ   (SI)(R8*1), R15; \
	PEXTQ  DX, R15, DX

// LONG decodes a 9- or 10-byte varint (DX = length - 1) into DX, or ends the
// call where wire.Uvarint would fail: the first 8 bytes give 56 bits, the
// 9th byte 7 more and the 10th byte, which must be 0 or 1, the top bit.
#define LONG \
	CMPQ    DX, $9; \
	JA      done; \
	MOVQ    (SI)(R8*1), R15; \
	PEXTQ   R11, R15, R15; \
	MOVBQZX 8(SI)(R8*1), R12; \
	ANDQ    $0x7f, R12; \
	SHLQ    $56, R12; \
	ORQ     R12, R15; \
	MOVBQZX 9(SI)(R8*1), R12; \
	CMPQ    DX, $8; \
	CMOVQEQ R13, R12; \
	CMPQ    R12, $1; \
	JA      done; \
	SHLQ    $63, R12; \
	ORQ     R15, R12; \
	MOVQ    R12, DX

// ZIGZAG decodes DX: v>>1 ^ -(v&1).
#define ZIGZAG \
	MOVQ DX, R15; \
	SHRQ $1, DX; \
	ANDQ $1, R15; \
	NEGQ R15; \
	XORQ R15, DX

// ADVANCE moves to the next block: the BMI2 loop reloads its stop bits at
// bmi2, the AVX-512 loop keeps this block as the previous one and goes on at
// avx.
#define ADVANCE(bmi2, avx) \
	ADDQ      $64, R9; \
	TESTL     CX, CX; \
	JZ        bmi2; \
	VMOVDQA64 Z1, Z0; \
	JMP       avx

// VBLOCK loads the block at R9 into Z1 and its stop bits, cleared where R14
// is, into BX, or ends the call when fewer than 72 bytes remain past R9. A
// block without a stop bit goes on at next. A block holding a varint of
// more than 8 bytes (the first one, which may start in an earlier block, is
// longer than 8, or 8 continuation bits in a row follow start) runs the
// BMI2 element loop at elem. Otherwise VPCOMPRESSB packs the varints' ends
// into Z2, each end + 1 is the next varint's start in Z3, and the first
// start is R8's; R12 counts the varints.
#define VBLOCK(next, elem) \
	MOVQ          R10, AX; \
	SUBQ          R9, AX; \
	CMPQ          AX, $72; \
	JLT           done; \
	VMOVDQU64     (SI)(R9*1), Z1; \
	VPMOVB2M      Z1, K1; \
	KMOVQ         K1, AX; \
	ANDNQ         R14, AX, BX; \
	ANDQ          R14, AX; \
	MOVQ          $-1, R14; \
	TESTQ         BX, BX; \
	JZ            next; \
	TZCNTQ        BX, DX; \
	ADDQ          R9, DX; \
	SUBQ          R8, DX; \
	CMPQ          DX, $7; \
	JA            elem; \
	MOVQ          AX, DX; \
	SHRQ          $1, DX; \
	ANDQ          DX, AX; \
	MOVQ          AX, DX; \
	SHRQ          $2, DX; \
	ANDQ          DX, AX; \
	MOVQ          AX, DX; \
	SHRQ          $4, DX; \
	TESTQ         DX, AX; \
	JNZ           elem; \
	MOVQ          R8, DX; \
	SUBQ          R9, DX; \
	ADDQ          $64, DX; \
	KMOVQ         BX, K2; \
	VPCOMPRESSB.Z Z31, K2, Z2; \
	VPERMB        Z2, Z23, Z3; \
	VPADDB        Z24, Z3, Z3; \
	VPBROADCASTB  DX, K3, Z3; \
	POPCNTQ       BX, R12; \
	VMOVDQA64     Z30, Z5

// VGROUP decodes the group of eight varints Z5 selects into the qwords of
// Z6 and sets K7 to the lanes that hold a varint. One VPERMI2B pulls the 8
// bytes from varint j's start into qword j; its first stop bit ends it, so
// s-1 for the qword's stop bits s keeps the bytes up to its end, and
// merging 7-bit pairs (VPSRLW+VPTERNLOGQ), 14-bit pairs (VPMADDWD by
// [1, 2^14]) and 28-bit pairs (VPSRLQ+VPTERNLOGQ) packs them.
#define VGROUP \
	VPERMB     Z3, Z5, Z6; \
	VPADDB     Z29, Z6, Z6; \
	VPERMI2B   Z1, Z0, Z6; \
	VPANDNQ    Z22, Z6, Z7; \
	VPSUBQ     Z20, Z7, Z7; \
	VPTERNLOGQ $0x80, Z28, Z7, Z6; \
	VPSRLW     $1, Z6, Z7; \
	VPTERNLOGQ $0xE4, Z27, Z7, Z6; \
	VPMADDWD   Z26, Z6, Z6; \
	VPSRLQ     $4, Z6, Z7; \
	VPTERNLOGQ $0xE4, Z25, Z7, Z6; \
	MOVL       $0xff, AX; \
	BZHIQ      R12, AX, AX; \
	KMOVQ      AX, K7

// VZIGZAG decodes the qwords of Z6: v>>1 ^ -(v&1).
#define VZIGZAG \
	VPSRLQ $1, Z6, Z7; \
	VPSLLQ $63, Z6, Z8; \
	VPSRAQ $63, Z8, Z8; \
	VPXORQ Z8, Z7, Z6

// VNEXT moves DI past the group's stored slots (scale = w) and loops to
// group while the block has varints left; then the next varint starts after
// the block's last stop bit, and the block loop goes on at next.
#define VNEXT(scale, group, next) \
	MOVQ    $8, AX; \
	CMPQ    R12, AX; \
	CMOVQLT R12, AX; \
	LEAQ    (DI)(AX*scale), DI; \
	VPADDB  Z21, Z5, Z5; \
	SUBQ    $8, R12; \
	JGT     group; \
	BSRQ    BX, AX; \
	LEAQ    1(R9)(AX*1), R8; \
	JMP     next

// func decodeBlocksBMI2(out []byte, o int, src []byte, start int, w uint32, zig bool) (int, int)
TEXT ·decodeBlocksBMI2(SB), NOSPLIT, $0-88
	XORL CX, CX
	JMP  decodeBlocks<>(SB)

// func decodeBlocksAVX512(out []byte, o int, src []byte, start int, w uint32, zig bool) (int, int)
TEXT ·decodeBlocksAVX512(SB), NOSPLIT, $0-88
	MOVL $1, CX
	JMP  decodeBlocks<>(SB)

TEXT decodeBlocks<>(SB), NOSPLIT, $0-88
	MOVQ out_base+0(FP), DI
	ADDQ o+24(FP), DI
	MOVQ src_base+32(FP), SI
	MOVQ src_len+40(FP), R10
	MOVQ start+56(FP), R8
	MOVQ $0x7f7f7f7f7f7f7f7f, R11
	XORQ R13, R13
	MOVQ R8, R9
	ANDQ $-64, R9
	// Bits below start in the first block belong to varints already decoded.
	MOVQ    R8, AX
	SUBQ    R9, AX
	MOVQ    $-1, R14
	SHLXQ   AX, R14, R14
	MOVL    w+64(FP), AX
	MOVBLZX zig+68(FP), DX
	TESTL   CX, CX
	JNZ     avxsetup
	CMPL    AX, $4
	JB      block1 // a bool is nonzero exactly when its zigzag form is
	JEQ     bmi2width4
	TESTL   DX, DX
	JNZ     block8z
	JMP     block8

bmi2width4:
	TESTL DX, DX
	JNZ   block4z
	JMP   block4

avxsetup:
	VMOVDQU64    avxEndIdx<>(SB), Z31
	VMOVDQU64    avxLaneIdx<>(SB), Z30
	MOVQ         $0x0706050403020100, R15
	VPBROADCASTQ R15, Z29
	VPBROADCASTQ R11, Z28
	MOVQ         $0x007f007f007f007f, R15
	VPBROADCASTQ R15, Z27
	MOVQ         $0x4000000140000001, R15
	VPBROADCASTQ R15, Z26
	MOVQ         $0x000000000fffffff, R15
	VPBROADCASTQ R15, Z25
	MOVQ         $0x0101010101010101, R15
	VPBROADCASTQ R15, Z24
	VMOVDQU64    avxPrevIdx<>(SB), Z23
	MOVQ         $0x0808080808080808, R15
	VPBROADCASTQ R15, Z21
	MOVQ         $0x8080808080808080, R15
	VPBROADCASTQ R15, Z22
	MOVQ         $1, R15
	VPBROADCASTQ R15, Z20
	KMOVQ        R15, K3
	// The first block holds start, so no varint reaches back into Z0.
	VPXORQ       Z0, Z0, Z0
	CMPL         AX, $4
	JB           avx1
	JEQ          avxwidth4
	TESTL        DX, DX
	JNZ          avx8z
	JMP          avx8

avxwidth4:
	TESTL DX, DX
	JNZ   avx4z
	JMP   avx4

avx1:
	VBLOCK(next1, elem1)

avxgroup1:
	VGROUP
	VPMINUQ Z20, Z6, Z6
	VPMOVQB Z6, K7, (DI)
	VNEXT(1, avxgroup1, next1)

block1:
	STOPBITS

	PCALIGN $32

elem1:
	NEXT(next1, long1)

store1:
	LEAQ  1(AX), R8
	TESTQ DX, DX
	SETNE (DI)
	INCQ  DI
	JMP   elem1

long1:
	LONG
	JMP store1

next1:
	ADVANCE(block1, avx1)

avx4:
	VBLOCK(next4, elem4)

avxgroup4:
	VGROUP
	VPMOVQD Z6, K7, (DI)
	VNEXT(4, avxgroup4, next4)

block4:
	STOPBITS

	PCALIGN $32

elem4:
	NEXT(next4, long4)

store4:
	LEAQ 1(AX), R8
	MOVL DX, (DI)
	ADDQ $4, DI
	JMP  elem4

long4:
	LONG
	JMP store4

next4:
	ADVANCE(block4, avx4)

avx4z:
	VBLOCK(next4z, elem4z)

avxgroup4z:
	VGROUP
	VZIGZAG
	VPMOVQD Z6, K7, (DI)
	VNEXT(4, avxgroup4z, next4z)

block4z:
	STOPBITS

	PCALIGN $32

elem4z:
	NEXT(next4z, long4z)

store4z:
	LEAQ 1(AX), R8
	ZIGZAG
	MOVL DX, (DI)
	ADDQ $4, DI
	JMP  elem4z

long4z:
	LONG
	JMP store4z

next4z:
	ADVANCE(block4z, avx4z)

avx8:
	VBLOCK(next8, elem8)

avxgroup8:
	VGROUP
	VMOVDQU64 Z6, K7, (DI)
	VNEXT(8, avxgroup8, next8)

block8:
	STOPBITS

	PCALIGN $32

elem8:
	NEXT(next8, long8)

store8:
	LEAQ 1(AX), R8
	MOVQ DX, (DI)
	ADDQ $8, DI
	JMP  elem8

long8:
	LONG
	JMP store8

next8:
	ADVANCE(block8, avx8)

avx8z:
	VBLOCK(next8z, elem8z)

avxgroup8z:
	VGROUP
	VZIGZAG
	VMOVDQU64 Z6, K7, (DI)
	VNEXT(8, avxgroup8z, next8z)

block8z:
	STOPBITS

	PCALIGN $32

elem8z:
	NEXT(next8z, long8z)

store8z:
	LEAQ 1(AX), R8
	ZIGZAG
	MOVQ DX, (DI)
	ADDQ $8, DI
	JMP  elem8z

long8z:
	LONG
	JMP store8z

next8z:
	ADVANCE(block8z, avx8z)

done:
	TESTL CX, CX
	JZ    finish
	VZEROUPPER

finish:
	SUBQ out_base+0(FP), DI
	MOVQ DI, ret+72(FP)
	MOVQ R8, ret1+80(FP)
	RET

// func cpuid(leaf, subleaf uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL leaf+0(FP), AX
	MOVL subleaf+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv(index uint32) (eax, edx uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-16
	MOVL index+0(FP), CX
	XGETBV
	MOVL AX, eax+8(FP)
	MOVL DX, edx+12(FP)
	RET

// The AVX-512 loop's index tables: the byte offsets 64-127 that
// VPCOMPRESSB packs ends from, the group lane index (byte 8j+k reads
// varint j of the group), and the shift that moves each end one lane up to
// become the next varint's start.
DATA avxEndIdx<>+0(SB)/8, $0x4746454443424140
DATA avxEndIdx<>+8(SB)/8, $0x4f4e4d4c4b4a4948
DATA avxEndIdx<>+16(SB)/8, $0x5756555453525150
DATA avxEndIdx<>+24(SB)/8, $0x5f5e5d5c5b5a5958
DATA avxEndIdx<>+32(SB)/8, $0x6766656463626160
DATA avxEndIdx<>+40(SB)/8, $0x6f6e6d6c6b6a6968
DATA avxEndIdx<>+48(SB)/8, $0x7776757473727170
DATA avxEndIdx<>+56(SB)/8, $0x7f7e7d7c7b7a7978
GLOBL avxEndIdx<>(SB), RODATA|NOPTR, $64

DATA avxLaneIdx<>+0(SB)/8, $0x0000000000000000
DATA avxLaneIdx<>+8(SB)/8, $0x0101010101010101
DATA avxLaneIdx<>+16(SB)/8, $0x0202020202020202
DATA avxLaneIdx<>+24(SB)/8, $0x0303030303030303
DATA avxLaneIdx<>+32(SB)/8, $0x0404040404040404
DATA avxLaneIdx<>+40(SB)/8, $0x0505050505050505
DATA avxLaneIdx<>+48(SB)/8, $0x0606060606060606
DATA avxLaneIdx<>+56(SB)/8, $0x0707070707070707
GLOBL avxLaneIdx<>(SB), RODATA|NOPTR, $64

DATA avxPrevIdx<>+0(SB)/8, $0x0605040302010000
DATA avxPrevIdx<>+8(SB)/8, $0x0e0d0c0b0a090807
DATA avxPrevIdx<>+16(SB)/8, $0x161514131211100f
DATA avxPrevIdx<>+24(SB)/8, $0x1e1d1c1b1a191817
DATA avxPrevIdx<>+32(SB)/8, $0x262524232221201f
DATA avxPrevIdx<>+40(SB)/8, $0x2e2d2c2b2a292827
DATA avxPrevIdx<>+48(SB)/8, $0x363534333231302f
DATA avxPrevIdx<>+56(SB)/8, $0x3e3d3c3b3a393837
GLOBL avxPrevIdx<>(SB), RODATA|NOPTR, $64
