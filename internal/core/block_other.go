//go:build !amd64

package core

// useAVX2 is false off amd64: scoreBlock runs scoreBlockGeneric.
var useAVX2 = false

// scoreBlockAVX2 exists only on amd64; useAVX2 keeps this stub unreached.
func scoreBlockAVX2(d *int16, row int, cols, ps, pr *int32, n int, k *blockConsts, snrOnly bool, out *[blockLanes]float64) {
	panic("core: no AVX2 block kernel on this architecture")
}
