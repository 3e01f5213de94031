// Package radio computes link budgets over a channel.Environment and
// reproduces the QCA9500 firmware's signal-strength reporting defects: the
// quarter-dB SNR quantization clamped to [-7, 12] dB, RSSI readings whose
// fluctuations are decorrelated from the SNR readings, severe outliers on
// weak channels, and missing reports.
package radio

import (
	"math"
	"slices"

	"talon/internal/antenna"
	"talon/internal/channel"
	"talon/internal/stats"
)

// Budget collects the scalar link-budget terms.
type Budget struct {
	// TxPowerDBm is the conducted transmit power per frame.
	TxPowerDBm float64
	// NoiseFloorDBm is thermal noise plus receiver noise figure over the
	// 1.76 GHz 802.11ad channel.
	NoiseFloorDBm float64
}

// DefaultBudget returns the calibrated budget of the simulated testbed.
// With the Talon array model a good sector pair reaches ≈18 dB true SNR
// at 3 m — the chamber-measured patterns of strong sectors saturate at
// the firmware's 12 dB reporting ceiling exactly as the flat-topped main
// lobes of the paper's Figure 5 do — and ≈11 dB at the 6 m
// conference-room distance, where readings stay inside the window and
// fluctuate, driving the stock sweep's selection instability.
func DefaultBudget() Budget {
	return Budget{
		TxPowerDBm:    9,
		NoiseFloorDBm: -71.5, // -174 dBm/Hz + 92.5 dB (1.76 GHz) + 10 dB NF
	}
}

// Path is one propagation ray resolved to both endpoints' local frames,
// with its propagation loss and the endpoints' gains along it.
type Path struct {
	// TXAz/TXEl is the departure direction in the transmitter's frame;
	// RXAz/RXEl the arrival direction in the receiver's.
	TXAz, TXEl float64
	RXAz, RXEl float64
	// LossDB is the ray's propagation loss (free space plus reflection).
	LossDB float64
	// TXGainDB and RXGainDB are the endpoints' directive gains along the
	// path. ResolvePaths leaves them zero; the caller fills them before
	// PathSNR.
	TXGainDB, RXGainDB float64
}

// maxStackRays is how many rays ResolvePaths traces without a heap
// buffer: the line of sight plus 15 reflectors, more than any scenario
// here builds.
const maxStackRays = 16

// ResolvePaths appends to dst every propagation ray between the posed
// devices, resolved to their local frames. Everything it computes depends
// on the poses only; Geometry.Resolve calls it once per pose pair. The
// rays are traced into a stack buffer, so a scene of up to
// maxStackRays rays resolves without allocating.
func ResolvePaths(dst []Path, env *channel.Environment, txPose, rxPose channel.Pose) []Path {
	var buf [maxStackRays]channel.Ray
	for _, r := range env.AppendRays(buf[:0], txPose.Pos, rxPose.Pos) {
		var p Path
		p.TXAz, p.TXEl = txPose.ToLocal(r.AoD)
		p.RXAz, p.RXEl = rxPose.ToLocal(r.AoA)
		p.LossDB = r.PathLossDB()
		dst = append(dst, p)
	}
	return dst
}

// PathSNR sums the power received over paths and returns the resulting SNR
// in dB. Paths add up in power (the selection algorithm is non-coherent);
// a path with a -Inf or NaN gain carries none.
func PathSNR(paths []Path, b Budget) float64 {
	power := 0.0
	for _, p := range paths {
		gt, gr := p.TXGainDB, p.RXGainDB
		if math.IsInf(gt, -1) || math.IsInf(gr, -1) || math.IsNaN(gt) || math.IsNaN(gr) {
			continue
		}
		rxDBm := b.TxPowerDBm + gt - p.LossDB + gr
		power += stats.Lin(rxDBm)
	}
	if power <= 0 {
		return math.Inf(-1)
	}
	return stats.DB(power) - b.NoiseFloorDBm
}

// Geometry is the direction-only part of a transmission between two
// posed devices: the resolved paths with the receiver's gain along each,
// and one Steering of the transmitter's array per path. One resolution
// serves every frame and ground-truth query between unmoved devices; SNR
// evaluates only the transmit weights. The zero value is ready to use.
type Geometry struct {
	paths []Path
	arr   *antenna.Array
	steer []*antenna.Steering
	// rx and rxW are the receive side of the last resolution (rxW a copy,
	// so an edit of the caller's weights is seen); traced holds freshly
	// traced paths, compared with paths before they replace them.
	rx     *antenna.Array
	rxW    antenna.Weights
	traced []Path
}

// Resolve computes the geometry of transmissions from array tx at txPose
// to array rx at rxPose, which receives with weights rxW. A nil rx is an
// isotropic receiver (0 dB along every path).
//
// The rays are traced on every call. When the traced paths, both arrays
// and rxW are bit-identical to the previous resolution's, Resolve keeps
// the receive gains and steerings and reports unchanged: every SNR the
// geometry returns is then the same as before the call.
func (g *Geometry) Resolve(env *channel.Environment, txPose, rxPose channel.Pose, tx, rx *antenna.Array, rxW antenna.Weights) (unchanged bool) {
	g.traced = ResolvePaths(g.traced[:0], env, txPose, rxPose)
	if g.arr == tx && g.rx == rx && samePaths(g.traced, g.paths) && sameWeights(g.rxW, rxW) {
		return true
	}
	g.paths, g.traced = g.traced, g.paths
	if g.arr != tx {
		g.arr, g.steer = tx, g.steer[:0]
	}
	g.rx = rx
	copyWeights(&g.rxW, rxW)
	for i := range g.paths {
		p := &g.paths[i]
		if rx != nil {
			p.RXGainDB = rx.Gain(rxW, p.RXAz, p.RXEl)
		}
		if i == len(g.steer) {
			g.steer = append(g.steer, tx.NewSteering())
		}
		g.steer[i].Point(p.TXAz, p.TXEl)
	}
	return false
}

// samePaths reports whether a and b hold bit-identical directions and
// losses (the gains are the geometry's own).
func samePaths(a, b []Path) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		p, q := &a[i], &b[i]
		if !sameBits(p.TXAz, q.TXAz) || !sameBits(p.TXEl, q.TXEl) ||
			!sameBits(p.RXAz, q.RXAz) || !sameBits(p.RXEl, q.RXEl) ||
			!sameBits(p.LossDB, q.LossDB) {
			return false
		}
	}
	return true
}

func sameBits(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }

// sameWeights reports whether a and b drive every element identically,
// Amp's nil-ness included.
func sameWeights(a, b antenna.Weights) bool {
	return slices.Equal(a.Phase, b.Phase) && slices.Equal(a.On, b.On) &&
		(a.Amp == nil) == (b.Amp == nil) && slices.Equal(a.Amp, b.Amp)
}

// copyWeights makes *dst a copy of src, reusing dst's storage.
func copyWeights(dst *antenna.Weights, src antenna.Weights) {
	dst.Phase = append(dst.Phase[:0], src.Phase...)
	dst.On = append(dst.On[:0], src.On...)
	if src.Amp == nil {
		dst.Amp = nil
	} else {
		dst.Amp = append(dst.Amp[:0], src.Amp...)
	}
}

// SNR returns the noiseless SNR in dB of a frame sent with weights w
// along the resolved paths (PathSNR with each path's transmit gain).
func (g *Geometry) SNR(w antenna.Weights, b Budget) float64 {
	for i := range g.paths {
		g.paths[i].TXGainDB = g.steer[i].Gain(w)
	}
	return PathSNR(g.paths, b)
}

// DominantDepartureAngles returns the angle of departure (local to txPose)
// of the strongest ray under isotropic endpoints. Compressive sector
// selection estimates exactly this angle: the direction the transmitter
// should steer toward.
func DominantDepartureAngles(env *channel.Environment, txPose, rxPose channel.Pose) (az, el float64, ok bool) {
	rays := env.Rays(txPose.Pos, rxPose.Pos)
	best := math.Inf(1)
	for _, r := range rays {
		if loss := r.PathLossDB(); loss < best {
			best = loss
			az, el = txPose.ToLocal(r.AoD)
			ok = true
		}
	}
	return az, el, ok
}
