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

// Lane constants of the fused argmax, as int64 lanes (the low half's
// four, then the high half's): each lane's offset from its block start
// and its bit in the used byte.
DATA laneOff<>+0(SB)/8, $0
DATA laneOff<>+8(SB)/8, $1
DATA laneOff<>+16(SB)/8, $2
DATA laneOff<>+24(SB)/8, $3
DATA laneOff<>+32(SB)/8, $4
DATA laneOff<>+40(SB)/8, $5
DATA laneOff<>+48(SB)/8, $6
DATA laneOff<>+56(SB)/8, $7
GLOBL laneOff<>(SB), RODATA|NOPTR, $64

DATA laneBit<>+0(SB)/8, $1
DATA laneBit<>+8(SB)/8, $2
DATA laneBit<>+16(SB)/8, $4
DATA laneBit<>+24(SB)/8, $8
DATA laneBit<>+32(SB)/8, $16
DATA laneBit<>+40(SB)/8, $32
DATA laneBit<>+48(SB)/8, $64
DATA laneBit<>+56(SB)/8, $128
GLOBL laneBit<>(SB), RODATA|NOPTR, $64

// Registers of the block finish:
//   Y8..Y12  n, Σps, Σpr, snrVarP, rssiVarP broadcast (blockConsts)
//   Y4..Y7   one half's Σx, Σx², Σps·x, Σpr·x as float64 (4 lanes)
//   Y14      scratch
//   Y13, Y15 the fold's state: +0 (scoreBlocksAVX2) or the argmax's
//            running best (argmaxBlocksAVX2)
// HALF_SNR forms varX = n·Σx² − (Σx)² in Y5 and the SNR factor
// max(n·Σps·x − Σps·Σx, 0)² / (snrVarP·varX) in Y6; HALF_RSSI forms the
// RSSI factor the same way and multiplies it into Y6; HALF_MASK masks
// the varX == 0 lanes of Y6 to +0, leaving Y4, Y5, Y7 and Y14 free for
// the argmax. The +0 operands are zeroed in place (a zeroing idiom
// costs no execution unit), which keeps Y13 and Y15 for the argmax. The
// operation order is jointQ's (block.go).
#define HALF_SNR \
	VMULPD  Y8, Y5, Y5; \
	VMULPD  Y4, Y4, Y14; \
	VSUBPD  Y14, Y5, Y5; \
	VMULPD  Y8, Y6, Y6; \
	VMULPD  Y9, Y4, Y14; \
	VSUBPD  Y14, Y6, Y6; \
	VXORPD  Y14, Y14, Y14; \
	VMAXPD  Y14, Y6, Y6; \
	VMULPD  Y6, Y6, Y6; \
	VMULPD  Y5, Y11, Y14; \
	VDIVPD  Y14, Y6, Y6

#define HALF_RSSI \
	VMULPD  Y8, Y7, Y7; \
	VMULPD  Y10, Y4, Y14; \
	VSUBPD  Y14, Y7, Y7; \
	VXORPD  Y14, Y14, Y14; \
	VMAXPD  Y14, Y7, Y7; \
	VMULPD  Y7, Y7, Y7; \
	VMULPD  Y5, Y12, Y14; \
	VDIVPD  Y14, Y7, Y7; \
	VMULPD  Y7, Y6, Y6

#define HALF_MASK \
	VXORPD  Y4, Y4, Y4; \
	VCMPPD  $0, Y4, Y5, Y14; \
	VANDNPD Y6, Y14, Y6

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

// Both kernels share the block walk: R11 steps through the block
// starts, R12 counts the blocks down, SI is lane 0 of column 0, DX is 1
// for an odd component count, and R8, R9, R10 point one past the last
// pair's column offsets, SNR pair word and RSSI pair word, so the pair
// loop runs an index BX from −n/2 up to 0 and an odd count's last
// component sits at R8, R9, R10 themselves. Moments, two components at
// a time (PAIR): each column's eight uint16 codes widen to int32 lanes
// (VPMOVZXWD); Σx adds both, and shifting the second into the high
// halves interleaves them into (x₂ⱼ, x₂ⱼ₊₁) int16 pairs, so one
// VPMADDWD each forms x₂ⱼ² + x₂ⱼ₊₁², and against the broadcast pair
// words ps₂ⱼ·x₂ⱼ + ps₂ⱼ₊₁·x₂ⱼ₊₁ and the same for pr. Codes are at most
// quantOne < 2¹⁵, so every int16 operand is its code and every pair sum,
// below 2·quantOne², is exact; each int32 moment is then a regrouping
// of the per-component sums the unpaired step (MOMENT) adds, and every
// partial sum stays below quantMaxComponents·quantOne² < 2³¹, so every
// moment is the same integer. MOMENT is the odd count's last component
// alone: the widened lanes are (x, 0) int16 pairs and its pair words
// (p, 0), so the pairwise multiply-add is exactly the product x·p.
#define BLOCK_ARGS \
	MOVQ         d+0(FP), SI; \
	MOVQ         starts+8(FP), R11; \
	MOVQ         nb+16(FP), R12; \
	MOVQ         n+48(FP), DX; \
	MOVQ         DX, AX; \
	SHRQ         $1, AX; \
	ANDQ         $1, DX; \
	MOVQ         offs+24(FP), R8; \
	MOVQ         pairS+32(FP), R9; \
	MOVQ         pairR+40(FP), R10; \
	LEAQ         (R8)(AX*8), R8; \
	LEAQ         (R9)(AX*4), R9; \
	LEAQ         (R10)(AX*4), R10; \
	MOVQ         k+56(FP), AX; \
	VBROADCASTSD 0(AX), Y8; \
	VBROADCASTSD 8(AX), Y9; \
	VBROADCASTSD 16(AX), Y10; \
	VBROADCASTSD 24(AX), Y11; \
	VBROADCASTSD 32(AX), Y12

#define BLOCK_START \
	MOVLQSX (R11), AX; \
	LEAQ    (SI)(AX*2), R13; \
	VPXOR   Y0, Y0, Y0; \
	VPXOR   Y1, Y1, Y1; \
	VPXOR   Y2, Y2, Y2; \
	VPXOR   Y3, Y3, Y3; \
	MOVQ    n+48(FP), BX; \
	SHRQ    $1, BX; \
	NEGQ    BX

#define PAIR \
	MOVLQSX      (R8)(BX*8), AX; \
	VPMOVZXWD    (R13)(AX*1), Y4; \
	MOVLQSX      4(R8)(BX*8), AX; \
	VPMOVZXWD    (R13)(AX*1), Y5; \
	VPADDD       Y4, Y5, Y7; \
	VPADDD       Y7, Y0, Y0; \
	VPSLLD       $16, Y5, Y5; \
	VPOR         Y5, Y4, Y4; \
	VPBROADCASTD (R9)(BX*4), Y5; \
	VPBROADCASTD (R10)(BX*4), Y6; \
	VPMADDWD     Y4, Y4, Y7; \
	VPADDD       Y7, Y1, Y1; \
	VPMADDWD     Y5, Y4, Y5; \
	VPADDD       Y5, Y2, Y2; \
	VPMADDWD     Y6, Y4, Y6; \
	VPADDD       Y6, Y3, Y3

#define MOMENT \
	MOVLQSX      (R8), AX; \
	VPMOVZXWD    (R13)(AX*1), Y4; \
	VPBROADCASTD (R9), Y5; \
	VPBROADCASTD (R10), Y6; \
	VPADDD       Y4, Y0, Y0; \
	VPMADDWD     Y4, Y4, Y7; \
	VPADDD       Y7, Y1, Y1; \
	VPMADDWD     Y5, Y4, Y5; \
	VPADDD       Y5, Y2, Y2; \
	VPMADDWD     Y6, Y4, Y6; \
	VPADDD       Y6, Y3, Y3

// MOMENTS takes every component's moments of the block at R13: the
// pair loop (n >= 3, so at least one pair), then an odd count's last
// component.
#define MOMENTS(pairs, done) \
pairs: \
	PAIR; \
	INCQ BX; \
	JNZ  pairs; \
	TESTQ DX, DX; \
	JZ   done; \
	MOMENT; \
done:

// POS_LO stores the low half's four scores at 0(DI) and leaves in AX
// the bits of the positive ones (above Y15 = +0); POS_HI stores the
// high half's at 32(DI), adds their bits as bits 4…7, keeps the lanes
// of the used byte at (R14) and stores the byte at (CX). VCMPPD
// predicate 0x1e is ordered greater-than: Go's v > 0.
#define POS_LO \
	VMOVUPD   Y6, 0(DI); \
	VCMPPD    $0x1e, Y15, Y6, Y14; \
	VMOVMSKPD Y14, AX

#define POS_HI \
	VMOVUPD   Y6, 32(DI); \
	VCMPPD    $0x1e, Y15, Y6, Y14; \
	VMOVMSKPD Y14, BX; \
	SHLQ      $4, BX; \
	ORQ       BX, AX; \
	ANDB      (R14), AX; \
	MOVB      AX, (CX)

// ARGMAX(off) folds one half's scores (Y6) into the running per-lane
// best: Y15 holds four best scores, Y13 their points as int64. The
// half's points are the block start (AX) plus the lane offsets at off,
// and its used lanes are the bits at off of the used byte at (DI). A lane
// takes its new score where that is used and strictly greater (VCMPPD
// predicate 0x1e, ordered greater-than); VBLENDVPD moves score and
// point bits unchanged.
#define ARGMAX(off) \
	VMOVQ        AX, X4; \
	VPBROADCASTQ X4, Y4; \
	VPADDQ       laneOff<>+off(SB), Y4, Y4; \
	VPBROADCASTB (DI), Y7; \
	VPAND        laneBit<>+off(SB), Y7, Y7; \
	VPCMPEQQ     laneBit<>+off(SB), Y7, Y7; \
	VCMPPD       $0x1e, Y15, Y6, Y5; \
	VANDPD       Y7, Y5, Y5; \
	VBLENDVPD    Y5, Y6, Y15, Y15; \
	VBLENDVPD    Y5, Y4, Y13, Y13

// func scoreBlocksAVX2(d *int16, starts *int32, nb int, offs, pairS, pairR *int32, n int, k *blockConsts, snrOnly bool, used *uint8, out *float64, pos *uint8)
//
// The finish constants are broadcast once; then, per block start, the
// moments and the finish of eight lanes, whose scores go to out and
// whose positive used lanes to pos.
TEXT ·scoreBlocksAVX2(SB), NOSPLIT, $0-96
	BLOCK_ARGS
	VXORPD Y15, Y15, Y15
	MOVQ   used+72(FP), R14
	MOVQ   out+80(FP), DI
	MOVQ   pos+88(FP), CX

block:
	BLOCK_START
	MOMENTS(pairs, finish)
	CMPB snrOnly+64(FP), $0
	JNE  snronly

	HALF_LO
	HALF_SNR
	HALF_RSSI
	HALF_MASK
	POS_LO
	HALF_HI
	HALF_SNR
	HALF_RSSI
	HALF_MASK
	POS_HI
	JMP  next

snronly:
	HALF_LO
	HALF_SNR
	HALF_MASK
	POS_LO
	HALF_HI
	HALF_SNR
	HALF_MASK
	POS_HI

next:
	ADDQ $64, DI
	ADDQ $4, R11
	INCQ R14
	INCQ CX
	DECQ R12
	JNZ  block
	VZEROUPPER
	RET

// func argmaxBlocksAVX2(d *int16, starts *int32, nb int, offs, pairS, pairR *int32, n int, k *blockConsts, snrOnly bool, used *uint8, best *laneBest)
//
// The block walk of scoreBlocksAVX2 with ARGMAX in place of the stores:
// the running best is loaded from best, folded over every block and
// stored back. DI steps through the used bytes.
TEXT ·argmaxBlocksAVX2(SB), NOSPLIT, $0-88
	BLOCK_ARGS
	MOVQ    used+72(FP), DI
	MOVQ    best+80(FP), AX
	VMOVUPD 0(AX), Y15
	VMOVDQU 32(AX), Y13

block:
	BLOCK_START
	MOMENTS(pairs, finish)
	MOVLQSX (R11), AX
	CMPB    snrOnly+64(FP), $0
	JNE     snronly

	HALF_LO
	HALF_SNR
	HALF_RSSI
	HALF_MASK
	ARGMAX(0)
	HALF_HI
	HALF_SNR
	HALF_RSSI
	HALF_MASK
	ARGMAX(32)
	JMP next

snronly:
	HALF_LO
	HALF_SNR
	HALF_MASK
	ARGMAX(0)
	HALF_HI
	HALF_SNR
	HALF_MASK
	ARGMAX(32)

next:
	ADDQ $4, R11
	INCQ DI
	DECQ R12
	JNZ  block
	MOVQ    best+80(FP), AX
	VMOVUPD Y15, 0(AX)
	VMOVDQU Y13, 32(AX)
	VZEROUPPER
	RET
