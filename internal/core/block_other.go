//go:build !amd64

package core

// useAVX2 is false off amd64: scoreBlocks runs scoreBlockGeneric.
var useAVX2 = false

// scoreBlocksAVX2 exists only on amd64; useAVX2 keeps this stub unreached.
func scoreBlocksAVX2(d *int16, row int, starts *int32, nb int, cols, ps, pr *int32, n int, k *blockConsts, snrOnly bool, out *float64) {
	panic("core: no AVX2 block kernel on this architecture")
}
