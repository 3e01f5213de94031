//go:build !amd64

package core

// useAVX2 is false off amd64: scoreBlocks and argmaxBlocks run
// scoreBlockGeneric.
var useAVX2 = false

// scoreBlocksAVX2 and argmaxBlocksAVX2 exist only on amd64; useAVX2
// keeps these stubs unreached.
func scoreBlocksAVX2(d *int16, starts *int32, nb int, offs, pairS, pairR *int32, n int, k *blockConsts, snrOnly bool, used *uint8, out *float64, pos *uint8) {
	panic("core: no AVX2 block kernel on this architecture")
}

func argmaxBlocksAVX2(d *int16, starts *int32, nb int, offs, pairS, pairR *int32, n int, k *blockConsts, snrOnly bool, used *uint8, best *laneBest) {
	panic("core: no AVX2 block kernel on this architecture")
}
