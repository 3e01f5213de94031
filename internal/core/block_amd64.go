package core

// useAVX2 selects the assembly block kernel (block_amd64.s): set once
// at init when the CPU has AVX2 and the OS saves YMM state.
var useAVX2 = hasAVX2()

// hasAVX2 follows the runtime's own feature probe: CPUID leaf 1 for AVX
// and OSXSAVE, XGETBV for the OS-enabled XMM and YMM state, CPUID leaf 7
// for AVX2.
func hasAVX2() bool {
	const (
		osxsave = 1 << 27 // CPUID.1:ECX
		avx     = 1 << 28 // CPUID.1:ECX
		xmmYmm  = 1<<1 | 1<<2
		avx2    = 1 << 5 // CPUID.(7,0):EBX
	)
	maxID, _, _, _ := cpuid(0, 0)
	if maxID < 7 {
		return false
	}
	_, _, ecx1, _ := cpuid(1, 0)
	if ecx1&(osxsave|avx) != osxsave|avx {
		return false
	}
	if xcr0, _ := xgetbv(); xcr0&xmmYmm != xmmYmm {
		return false
	}
	_, ebx7, _, _ := cpuid(7, 0)
	return ebx7&avx2 != 0
}

func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (eax, edx uint32)

// scoreBlocksAVX2 is scoreBlocks' moments, finish and positive-lane
// bytes on AVX2: d points at lane 0 of column 0, starts and used hold
// the nb block starts and their used lanes, offs are the n correlated
// components' columns as byte offsets from d (quantVec.offsets), pairS
// and pairR their probe codes as int16 pairs (quantVec), block b's eight
// lanes go to out[8b …] and its positive used lanes to pos[b]. The
// caller has bounds-checked every load, passes nb >= 1 and n >= 3 and
// has handled the per-item degenerate cases.
//
//go:noescape
func scoreBlocksAVX2(d *int16, starts *int32, nb int, offs, pairS, pairR *int32, n int, k *blockConsts, snrOnly bool, used *uint8, out *float64, pos *uint8)

// argmaxBlocksAVX2 is argmaxBlocks' fused fold on AVX2: the block walk
// of scoreBlocksAVX2, folding each block's lanes marked in used (one
// byte per block) into best instead of storing them. The caller's
// conditions are scoreBlocksAVX2's.
//
//go:noescape
func argmaxBlocksAVX2(d *int16, starts *int32, nb int, offs, pairS, pairR *int32, n int, k *blockConsts, snrOnly bool, used *uint8, best *laneBest)
