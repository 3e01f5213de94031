package eval

import (
	"context"
	"fmt"
	"strings"
	"time"

	"talon/internal/antenna"
	"talon/internal/channel"
	"talon/internal/core"
	"talon/internal/dot11ad"
	"talon/internal/geom"
	"talon/internal/radio"
	"talon/internal/sector"
	"talon/internal/stats"
)

// DensifyPoint is one codebook size × policy cell.
type DensifyPoint struct {
	Sectors     int
	Policy      string
	Probes      int
	TrainTime   time.Duration
	MeanLossDB  float64
	MedianAzErr float64
}

// DensifyResult quantifies the Section 7 claim that compressive selection
// unlocks larger codebooks: "we could significantly increase the number
// of available sectors while keeping the number of probes as low as in
// the current sweep", whereas the stock sweep's airtime grows linearly
// with the sector count.
type DensifyResult struct {
	Points []DensifyPoint
}

// DensifyStudy compares the stock sweep against CSS with a fixed probe
// budget m on codebooks of increasing size (up to the 6-bit maximum of
// 63 sectors). The link is a 6 m LOS deployment; selections are judged by
// the true-SNR loss against the codebook's own optimum and by the angle
// estimation error (CSS only). ctx cancels the study between trials.
func DensifyStudy(ctx context.Context, seed int64, m int, sizes []int, trials int, rng *stats.RNG) (*DensifyResult, error) {
	if m <= 0 {
		m = 14
	}
	if len(sizes) == 0 {
		sizes = []int{34, 48, 63}
	}
	if trials <= 0 {
		trials = 60
	}
	arr, err := antenna.New(antenna.TalonConfig(), stats.NewRNG(seed).Split("array"))
	if err != nil {
		return nil, err
	}
	grid, err := geom.UniformGrid(-80, 80, 2, 0, 16, 4)
	if err != nil {
		return nil, err
	}
	budget := radio.DefaultBudget()
	model := radio.DefaultMeasurementModel()
	env := channel.AnechoicChamber()
	txPose := channel.Pose{}
	txPose.Pos.Z = 1.2
	rxPose := channel.Pose{Yaw: 180}
	rxPose.Pos.X = 6
	rxPose.Pos.Z = 1.2

	res := &DensifyResult{}
	for _, n := range sizes {
		cb, err := antenna.DenseCodebook(arr, n)
		if err != nil {
			return nil, err
		}
		patterns := antenna.SamplePatterns(arr, cb, grid)
		est, err := core.NewEstimator(patterns, core.Options{})
		if err != nil {
			return nil, err
		}
		txIDs := patterns.TXIDs()

		// geo holds the trial's geometry: the receiver at azimuth offset
		// dirAz (implemented by yawing the transmitter), isotropic.
		var geo radio.Geometry
		trueSNR := func(id sector.ID) float64 {
			w, _ := cb.Weights(id)
			return geo.SNR(w, budget)
		}

		runPolicy := func(name string, probeCount int, compressive bool) error {
			var losses, azErrs []float64
			for trial := 0; trial < trials; trial++ {
				if err := ctx.Err(); err != nil {
					return err
				}
				dirAz := rng.Uniform(-60, 60)
				pose := txPose
				pose.Yaw = -dirAz
				geo.Resolve(env, pose, rxPose, arr, nil, antenna.Weights{})
				var probeIDs []sector.ID
				if probeCount >= len(txIDs) {
					probeIDs = txIDs
				} else {
					set, err := core.RandomProbes(rng, txIDs, probeCount)
					if err != nil {
						return err
					}
					probeIDs = set.IDs()
				}
				probes := make([]core.Probe, len(probeIDs))
				for i, id := range probeIDs {
					meas, ok := model.Observe(trueSNR(id), rng.Split(fmt.Sprintf("m%d", trial)))
					probes[i] = core.Probe{Sector: id, Meas: meas, OK: ok}
				}
				var pick sector.ID
				if compressive {
					sel, err := est.SelectSector(ctx, probes)
					if err != nil {
						continue
					}
					pick = sel.Sector
					if !sel.Fallback {
						azErrs = append(azErrs, geom.AzDist(sel.AoA.Az, dirAz))
					}
				} else {
					id, ok := core.SweepSelect(probes)
					if !ok {
						continue
					}
					pick = id
				}
				best := -1e9
				for _, id := range txIDs {
					if snr := trueSNR(id); snr > best {
						best = snr
					}
				}
				losses = append(losses, best-trueSNR(pick))
			}
			res.Points = append(res.Points, DensifyPoint{
				Sectors:     n,
				Policy:      name,
				Probes:      probeCount,
				TrainTime:   dot11ad.MutualTrainingTime(probeCount),
				MeanLossDB:  stats.Mean(losses),
				MedianAzErr: stats.Median(azErrs),
			})
			return nil
		}
		if err := runPolicy("SSW", len(txIDs), false); err != nil {
			return nil, err
		}
		if err := runPolicy(fmt.Sprintf("CSS-%d", m), m, true); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// Table renders the study.
func (r *DensifyResult) Table() string {
	var b strings.Builder
	fmt.Fprintln(&b, "Codebook densification study (Section 7): CSS keeps the probe budget flat")
	fmt.Fprintf(&b, "%8s %-8s %7s %11s %11s %13s\n", "sectors", "policy", "probes", "train time", "loss [dB]", "med az err")
	for _, pt := range r.Points {
		az := "-"
		if pt.MedianAzErr == pt.MedianAzErr { // not NaN
			az = fmt.Sprintf("%.2f°", pt.MedianAzErr)
		}
		fmt.Fprintf(&b, "%8d %-8s %7d %11v %11.2f %13s\n",
			pt.Sectors, pt.Policy, pt.Probes, pt.TrainTime, pt.MeanLossDB, az)
	}
	return b.String()
}
