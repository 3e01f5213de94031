#include "textflag.h"

// func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL eaxArg+0(FP), AX
	MOVL ecxArg+4(FP), CX
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

// Registers of the block finish:
//   Y8..Y12  n, Σps, Σpr, snrVarP, rssiVarP broadcast (blockConsts)
//   Y13      +0
//   Y4..Y7   one half's Σx, Σx², Σps·x, Σpr·x as float64 (4 lanes)
//   Y14      scratch
// HALF_SNR forms varX = n·Σx² − (Σx)² in Y5 and the SNR factor
// max(n·Σps·x − Σps·Σx, 0)² / (snrVarP·varX) in Y6; HALF_RSSI forms the
// RSSI factor the same way and multiplies it into Y6; HALF_STORE masks
// the varX == 0 lanes to +0 and stores the four lanes at off(DI). The
// operation order is jointQ's (block.go).
#define HALF_SNR \
	VMULPD  Y8, Y5, Y5; \
	VMULPD  Y4, Y4, Y14; \
	VSUBPD  Y14, Y5, Y5; \
	VMULPD  Y8, Y6, Y6; \
	VMULPD  Y9, Y4, Y14; \
	VSUBPD  Y14, Y6, Y6; \
	VMAXPD  Y13, Y6, Y6; \
	VMULPD  Y6, Y6, Y6; \
	VMULPD  Y5, Y11, Y14; \
	VDIVPD  Y14, Y6, Y6

#define HALF_RSSI \
	VMULPD  Y8, Y7, Y7; \
	VMULPD  Y10, Y4, Y14; \
	VSUBPD  Y14, Y7, Y7; \
	VMAXPD  Y13, Y7, Y7; \
	VMULPD  Y7, Y7, Y7; \
	VMULPD  Y5, Y12, Y14; \
	VDIVPD  Y14, Y7, Y7; \
	VMULPD  Y7, Y6, Y6

#define HALF_STORE(off) \
	VCMPPD  $0, Y13, Y5, Y14; \
	VANDNPD Y6, Y14, Y6; \
	VMOVUPD Y6, off(DI)

// Converts the low (HALF_LO) or high (HALF_HI) four int32 lanes of the
// moment accumulators Y0..Y3 to float64 in Y4..Y7.
#define HALF_LO \
	VCVTDQ2PD X0, Y4; \
	VCVTDQ2PD X1, Y5; \
	VCVTDQ2PD X2, Y6; \
	VCVTDQ2PD X3, Y7

#define HALF_HI \
	VEXTRACTI128 $1, Y0, X4; \
	VEXTRACTI128 $1, Y1, X5; \
	VEXTRACTI128 $1, Y2, X6; \
	VEXTRACTI128 $1, Y3, X7; \
	VCVTDQ2PD    X4, Y4; \
	VCVTDQ2PD    X5, Y5; \
	VCVTDQ2PD    X6, Y6; \
	VCVTDQ2PD    X7, Y7

// func scoreBlocksAVX2(d *int16, row int, starts *int32, nb int, cols, ps, pr *int32, n int, k *blockConsts, snrOnly bool, out *float64)
//
// The finish constants are broadcast once; then, per block start, the
// moments and the finish of eight lanes. Moments: per component, the
// column's eight uint16 codes widen to int32 lanes (VPMOVZXWD); Σx adds
// them, and VPMADDWD forms x², ps·x and pr·x. Each widened lane is
// (x, 0) as an int16 pair and each broadcast code (p, 0), so the
// pairwise multiply-add is exactly the int32 product x·p: codes are at
// most quantOne < 2¹⁵.
TEXT ·scoreBlocksAVX2(SB), NOSPLIT, $0-88
	MOVQ d+0(FP), SI
	MOVQ row+8(FP), DX
	SHLQ $1, DX          // column pitch in bytes
	MOVQ starts+16(FP), R11
	MOVQ nb+24(FP), R12
	MOVQ cols+32(FP), R8
	MOVQ ps+40(FP), R9
	MOVQ pr+48(FP), R10
	MOVQ n+56(FP), CX
	MOVQ out+80(FP), DI

	MOVQ         k+64(FP), AX
	VBROADCASTSD 0(AX), Y8
	VBROADCASTSD 8(AX), Y9
	VBROADCASTSD 16(AX), Y10
	VBROADCASTSD 24(AX), Y11
	VBROADCASTSD 32(AX), Y12
	VXORPD       Y13, Y13, Y13

block:
	MOVLQSX (R11), AX
	LEAQ    (SI)(AX*2), R13  // lane 0 of column 0 for this block
	VPXOR   Y0, Y0, Y0       // Σx
	VPXOR   Y1, Y1, Y1       // Σx²
	VPXOR   Y2, Y2, Y2       // Σps·x
	VPXOR   Y3, Y3, Y3       // Σpr·x
	XORQ    BX, BX

moments:
	MOVLQSX      (R8)(BX*4), AX
	IMULQ        DX, AX
	VPMOVZXWD    (R13)(AX*1), Y4
	VPBROADCASTD (R9)(BX*4), Y5
	VPBROADCASTD (R10)(BX*4), Y6
	VPADDD       Y4, Y0, Y0
	VPMADDWD     Y4, Y4, Y7
	VPADDD       Y7, Y1, Y1
	VPMADDWD     Y5, Y4, Y5
	VPADDD       Y5, Y2, Y2
	VPMADDWD     Y6, Y4, Y6
	VPADDD       Y6, Y3, Y3
	INCQ         BX
	CMPQ         BX, CX
	JLT          moments

	CMPB snrOnly+72(FP), $0
	JNE  snronly

	HALF_LO
	HALF_SNR
	HALF_RSSI
	HALF_STORE(0)
	HALF_HI
	HALF_SNR
	HALF_RSSI
	HALF_STORE(32)
	JMP  next

snronly:
	HALF_LO
	HALF_SNR
	HALF_STORE(0)
	HALF_HI
	HALF_SNR
	HALF_STORE(32)

next:
	ADDQ $64, DI
	ADDQ $4, R11
	DECQ R12
	JNZ  block
	VZEROUPPER
	RET
