#include "textflag.h"

// decodeBlocksBMI2 keeps: SI src, R10 len(src), R8 start of the next varint,
// R9 block base, DI next slot (&out[o]), BX the block's remaining stop bits,
// R11 the 0x7f data-bit mask, R14 the first block's entry mask. Each (w, zig)
// form has its own element loop, so the common path of an element takes one
// taken branch.

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

// func decodeBlocksBMI2(out []byte, o int, src []byte, start int, w uint32, zig bool) (int, int)
TEXT ·decodeBlocksBMI2(SB), NOSPLIT, $0-88
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
	MOVQ  R8, AX
	SUBQ  R9, AX
	MOVQ  $-1, R14
	SHLXQ AX, R14, R14
	MOVL  w+64(FP), CX
	MOVBLZX zig+68(FP), DX
	CMPL  CX, $4
	JB    block1  // a bool is nonzero exactly when its zigzag form is
	JEQ   width4
	TESTL DX, DX
	JNZ   block8z
	JMP   block8

width4:
	TESTL DX, DX
	JNZ   block4z
	JMP   block4

block1:
	STOPBITS

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
	ADDQ $64, R9
	JMP  block1

block4:
	STOPBITS

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
	ADDQ $64, R9
	JMP  block4

block4z:
	STOPBITS

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
	ADDQ $64, R9
	JMP  block4z

block8:
	STOPBITS

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
	ADDQ $64, R9
	JMP  block8

block8z:
	STOPBITS

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
	ADDQ $64, R9
	JMP  block8z

done:
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
