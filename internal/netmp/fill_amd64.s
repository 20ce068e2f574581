#include "textflag.h"

// Products k·mul of stream positions 0, 1, 16 and 17: Y0's lanes. Yj
// holds positions 2j, 2j+1, 16+2j and 17+2j, so Yj = Y0 + 2j·mul.
DATA fillStart<>+0(SB)/8, $0
DATA fillStart<>+8(SB)/8, $0xff51afd7ed558ccd
DATA fillStart<>+16(SB)/8, $0xf51afd7ed558ccd0
DATA fillStart<>+24(SB)/8, $0xf46cad56c2ae599d
GLOBL fillStart<>(SB), RODATA|NOPTR, $32

DATA fillMul2<>+0(SB)/8, $0xfea35fafdaab199a
GLOBL fillMul2<>(SB), RODATA|NOPTR, $8

DATA fillMul32<>+0(SB)/8, $0xea35fafdaab199a0
GLOBL fillMul32<>(SB), RODATA|NOPTR, $8

// Yj's shuffle mask is the 32 bytes at fillMask+14-2j: in each 128-bit
// half it moves qword 0's low byte to byte 2j, qword 1's to byte 2j+1,
// and zeroes every other byte (0x80).
DATA fillMask<>+0(SB)/8, $0x8080808080808080
DATA fillMask<>+8(SB)/8, $0x0800808080808080
DATA fillMask<>+16(SB)/8, $0x8080808080808080
DATA fillMask<>+24(SB)/8, $0x0800808080808080
DATA fillMask<>+32(SB)/8, $0x8080808080808080
DATA fillMask<>+40(SB)/8, $0x8080808080808080
GLOBL fillMask<>(SB), RODATA|NOPTR, $48

// LANE puts byte(y ^ y>>33) of each of y's four lanes at its place in
// the 32-byte run, zeros elsewhere, into t, and steps y on by 32
// positions. SI holds fillMask's address.
#define LANE(y, mask, t) \
	VPSRLQ  $33, y, t; \
	VPXOR   y, t, t; \
	VPSHUFB mask(SI), t, t; \
	VPADDQ  Y8, y, y

// SETUP points SI at fillMask and, from Y0 holding y in every lane,
// loads the lanes Y0–Y7 and the step Y8.
#define SETUP \
	LEAQ         fillMask<>(SB), SI; \
	VPADDQ       fillStart<>(SB), Y0, Y0; \
	VPBROADCASTQ fillMul2<>(SB), Y9; \
	VPADDQ       Y9, Y0, Y1; \
	VPADDQ       Y9, Y1, Y2; \
	VPADDQ       Y9, Y2, Y3; \
	VPADDQ       Y9, Y3, Y4; \
	VPADDQ       Y9, Y4, Y5; \
	VPADDQ       Y9, Y5, Y6; \
	VPADDQ       Y9, Y6, Y7; \
	VPBROADCASTQ fillMul32<>(SB), Y8

// RUN puts the next 32 bytes of the stream into Y9 and steps every lane
// on; it uses Y10–Y14.
#define RUN \
	LANE(Y0, 14, Y9); \
	LANE(Y1, 12, Y10); \
	LANE(Y2, 10, Y11); \
	LANE(Y3, 8, Y12); \
	VPOR Y10, Y9, Y9; \
	VPOR Y12, Y11, Y11; \
	LANE(Y4, 6, Y10); \
	LANE(Y5, 4, Y12); \
	LANE(Y6, 2, Y13); \
	LANE(Y7, 0, Y14); \
	VPOR Y12, Y10, Y10; \
	VPOR Y14, Y13, Y13; \
	VPOR Y11, Y9, Y9; \
	VPOR Y13, Y10, Y10; \
	VPOR Y10, Y9, Y9

// func fillAVX2(dst *byte, n int, y uint64)
TEXT ·fillAVX2(SB), NOSPLIT, $0-24
	MOVQ dst+0(FP), DI
	MOVQ n+8(FP), CX
	VPBROADCASTQ y+16(FP), Y0
	SETUP

loop:
	RUN
	VMOVDQU Y9, (DI)
	ADDQ $32, DI
	SUBQ $32, CX
	JNZ  loop
	VZEROUPPER
	RET

// func checkAVX2(src []byte, y uint64) bool
//
// Each run's difference from the source is ORed into Y15, which is zero
// at the end only if every run matched: one test, no branch per run.
TEXT ·checkAVX2(SB), NOSPLIT, $0-33
	MOVQ src_base+0(FP), DI
	MOVQ src_len+8(FP), CX
	VPBROADCASTQ y+24(FP), Y0
	SETUP
	VPXOR Y15, Y15, Y15

loop:
	RUN
	VPXOR (DI), Y9, Y9
	VPOR  Y9, Y15, Y15
	ADDQ  $32, DI
	SUBQ  $32, CX
	JNZ   loop
	VPTEST Y15, Y15
	SETEQ  ret+32(FP)
	VZEROUPPER
	RET

// func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL leaf+0(FP), AX
	MOVL sub+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() (eax, edx uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-8
	MOVL $0, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET
