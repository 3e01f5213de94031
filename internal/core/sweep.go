package core

import (
	"math"

	"talon/internal/sector"
)

// SweepSelect is the stock sector-sweep baseline (Eq. 1): the probed
// sector with the highest reported SNR. Missing reports simply lose —
// exactly the failure mode that makes the stock algorithm fluctuate.
// ok is false when no probe carried a measurement.
func SweepSelect(probes []Probe) (id sector.ID, ok bool) {
	bestSNR := math.Inf(-1)
	for _, p := range probes {
		if !p.OK {
			continue
		}
		if p.Meas.SNR > bestSNR {
			id, bestSNR, ok = p.Sector, p.Meas.SNR, true
		}
	}
	return id, ok
}
