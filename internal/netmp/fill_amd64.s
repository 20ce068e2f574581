#include "textflag.h"

// The kernel keeps a 32-byte run's positions in dword lanes, Y0–Y3:
// register r, dword d holds position (d&4)<<2 + 4r + (d&3), the order in
// which RUN's two packs emit the bytes in sequence. A lane holds bits
// 9..40 of its position's product x = key·mul, so VPSRLD $24 brings down
// bits 33..40; Y4 holds each position's low byte of x.

// Products pos·mul of the lanes, in the qword pairs VSHUFPS folds into
// Y0–Y3: for register r, positions 4r, 4r+1, 16+4r and 17+4r, then 4r+2,
// 4r+3, 18+4r and 19+4r.
DATA fillProd<>+0(SB)/8, $0x0000000000000000
DATA fillProd<>+8(SB)/8, $0xff51afd7ed558ccd
DATA fillProd<>+16(SB)/8, $0xf51afd7ed558ccd0
DATA fillProd<>+24(SB)/8, $0xf46cad56c2ae599d
DATA fillProd<>+32(SB)/8, $0xfea35fafdaab199a
DATA fillProd<>+40(SB)/8, $0xfdf50f87c800a667
DATA fillProd<>+48(SB)/8, $0xf3be5d2eb003e66a
DATA fillProd<>+56(SB)/8, $0xf3100d069d597337
DATA fillProd<>+64(SB)/8, $0xfd46bf5fb5563334
DATA fillProd<>+72(SB)/8, $0xfc986f37a2abc001
DATA fillProd<>+80(SB)/8, $0xf261bcde8aaf0004
DATA fillProd<>+88(SB)/8, $0xf1b36cb678048cd1
DATA fillProd<>+96(SB)/8, $0xfbea1f0f90014cce
DATA fillProd<>+104(SB)/8, $0xfb3bcee77d56d99b
DATA fillProd<>+112(SB)/8, $0xf1051c8e655a199e
DATA fillProd<>+120(SB)/8, $0xf056cc6652afa66b
DATA fillProd<>+128(SB)/8, $0xfa8d7ebf6aac6668
DATA fillProd<>+136(SB)/8, $0xf9df2e975801f335
DATA fillProd<>+144(SB)/8, $0xefa87c3e40053338
DATA fillProd<>+152(SB)/8, $0xeefa2c162d5ac005
DATA fillProd<>+160(SB)/8, $0xf930de6f45578002
DATA fillProd<>+168(SB)/8, $0xf8828e4732ad0ccf
DATA fillProd<>+176(SB)/8, $0xee4bdbee1ab04cd2
DATA fillProd<>+184(SB)/8, $0xed9d8bc60805d99f
DATA fillProd<>+192(SB)/8, $0xf7d43e1f2002999c
DATA fillProd<>+200(SB)/8, $0xf725edf70d582669
DATA fillProd<>+208(SB)/8, $0xecef3b9df55b666c
DATA fillProd<>+216(SB)/8, $0xec40eb75e2b0f339
DATA fillProd<>+224(SB)/8, $0xf6779dcefaadb336
DATA fillProd<>+232(SB)/8, $0xf5c94da6e8034003
DATA fillProd<>+240(SB)/8, $0xeb929b4dd0068006
DATA fillProd<>+248(SB)/8, $0xeae44b25bd5c0cd3
GLOBL fillProd<>(SB), RODATA|NOPTR, $256

// Byte j is the low byte of j·mul.
DATA fillLow<>+0(SB)/8, $0x9bce0134679acd00
DATA fillLow<>+8(SB)/8, $0x0336699ccf023568
DATA fillLow<>+16(SB)/8, $0x6b9ed104376a9dd0
DATA fillLow<>+24(SB)/8, $0xd306396c9fd20538
GLOBL fillLow<>(SB), RODATA|NOPTR, $32

// The low byte of 32·mul: what every position's low byte gains per run.
DATA fillLowStep<>+0(SB)/1, $0xa0
GLOBL fillLowStep<>(SB), RODATA|NOPTR, $1

// SETUP loads the lanes Y0–Y3 and the low bytes Y4 of the run whose
// first product is y, the low-byte step Y5, fillSteps' address R8, and
// in DX the offset of the run's row: (y mod 512)·128. It takes y in Y9,
// broadcast, and in DX.
#define SETUP \
	VPADDQ       fillProd<>+0(SB), Y9, Y10; \
	VPADDQ       fillProd<>+32(SB), Y9, Y11; \
	VPADDQ       fillProd<>+64(SB), Y9, Y12; \
	VPADDQ       fillProd<>+96(SB), Y9, Y13; \
	VPSRLQ       $9, Y10, Y10; \
	VPSRLQ       $9, Y11, Y11; \
	VPSRLQ       $9, Y12, Y12; \
	VPSRLQ       $9, Y13, Y13; \
	VSHUFPS      $0x88, Y11, Y10, Y0; \
	VSHUFPS      $0x88, Y13, Y12, Y1; \
	VPADDQ       fillProd<>+128(SB), Y9, Y10; \
	VPADDQ       fillProd<>+160(SB), Y9, Y11; \
	VPADDQ       fillProd<>+192(SB), Y9, Y12; \
	VPADDQ       fillProd<>+224(SB), Y9, Y13; \
	VPSRLQ       $9, Y10, Y10; \
	VPSRLQ       $9, Y11, Y11; \
	VPSRLQ       $9, Y12, Y12; \
	VPSRLQ       $9, Y13, Y13; \
	VSHUFPS      $0x88, Y11, Y10, Y2; \
	VSHUFPS      $0x88, Y13, Y12, Y3; \
	VPBROADCASTB X9, Y4; \
	VPADDB       fillLow<>(SB), Y4, Y4; \
	VPBROADCASTB fillLowStep<>(SB), Y5; \
	LEAQ         ·fillSteps(SB), R8; \
	ANDL         $511, DX; \
	SHLL         $7, DX

// RUN puts the next 32 bytes of the stream into Y6 and steps every lane
// on by its entry in the run's row of fillSteps, and DX to the next
// run's row (the phase gains 32·mul mod 512 = 416); it uses Y7–Y9.
#define RUN \
	VPSRLD    $24, Y0, Y6; \
	VPSRLD    $24, Y1, Y7; \
	VPSRLD    $24, Y2, Y8; \
	VPSRLD    $24, Y3, Y9; \
	VPADDD    (R8)(DX*1), Y0, Y0; \
	VPADDD    32(R8)(DX*1), Y1, Y1; \
	VPADDD    64(R8)(DX*1), Y2, Y2; \
	VPADDD    96(R8)(DX*1), Y3, Y3; \
	VPACKUSDW Y7, Y6, Y6; \
	VPACKUSDW Y9, Y8, Y8; \
	VPACKUSWB Y8, Y6, Y6; \
	VPXOR     Y4, Y6, Y6; \
	VPADDB    Y5, Y4, Y4; \
	ADDL      $416<<7, DX; \
	ANDL      $0xffff, DX

// func fillAVX2(dst *byte, n int, y uint64)
TEXT ·fillAVX2(SB), NOSPLIT, $0-24
	MOVQ dst+0(FP), DI
	MOVQ n+8(FP), CX
	MOVQ y+16(FP), DX
	VPBROADCASTQ y+16(FP), Y9
	SETUP

loop:
	RUN
	VMOVDQU Y6, (DI)
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
	MOVQ y+24(FP), DX
	VPBROADCASTQ y+24(FP), Y9
	SETUP
	VPXOR Y15, Y15, Y15

loop:
	RUN
	VPXOR (DI), Y6, Y6
	VPOR  Y6, Y15, Y15
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
