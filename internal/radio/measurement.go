package radio

import (
	"math"

	"talon/internal/stats"
)

// Measurement is what the (patched) firmware reports for one received SSW
// frame: the quantized SNR and the RSSI. The two readings are acquired by
// different hardware paths, so their fluctuations are decorrelated even
// though both track the same true signal strength — exactly the property
// Section 5 of the paper exploits in Eq. 5.
type Measurement struct {
	// SNR in dB, quantized to quarter-dB steps and clamped to
	// [SNRMinDB, SNRMaxDB].
	SNR float64
	// RSSI in dBm.
	RSSI float64
}

// Firmware reporting window for SNR (Section 4.3 of the paper).
const (
	SNRMinDB      = -7.0
	SNRMaxDB      = 12.0
	SNRQuantumDB  = 0.25
	RSSIQuantumDB = 1.0
)

// MeasurementModel reproduces the reporting defects of the stock firmware.
// The zero value is unusable; use DefaultMeasurementModel.
type MeasurementModel struct {
	// DecodeThresholdDB is the 50%-decode SNR of SSW frames (MCS 0
	// control PHY sensitivity in this budget's units).
	DecodeThresholdDB float64
	// DecodeWidthDB controls how fast decoding probability rises around
	// the threshold.
	DecodeWidthDB float64
	// BaseMissProb is the probability that the firmware silently drops
	// the report for a perfectly decodable frame.
	BaseMissProb float64
	// SNRNoiseStdDB / RSSINoiseStdDB are the reading fluctuations at high
	// SNR; fluctuations grow toward low SNR (LowSNRNoiseBoost at and
	// below 0 dB true SNR).
	SNRNoiseStdDB    float64
	RSSINoiseStdDB   float64
	LowSNRNoiseBoost float64
	// OutlierProb / OutlierScaleDB inject the severe heavy-tailed
	// outliers observed when reading the ring buffer. SNR and RSSI draw
	// outliers independently.
	OutlierProb    float64
	OutlierScaleDB float64
	// NoiseFloorDBm anchors the RSSI scale: RSSI ≈ SNR + noise floor.
	NoiseFloorDBm float64
}

// DefaultMeasurementModel returns the defect model calibrated against the
// behaviours reported in Sections 4.3 and 5 of the paper.
func DefaultMeasurementModel() MeasurementModel {
	return MeasurementModel{
		DecodeThresholdDB: -9.0,
		DecodeWidthDB:     1.5,
		BaseMissProb:      0.06,
		SNRNoiseStdDB:     1.0,
		RSSINoiseStdDB:    1.2,
		LowSNRNoiseBoost:  2.5,
		OutlierProb:       0.07,
		OutlierScaleDB:    7.0,
		NoiseFloorDBm:     -71.5,
	}
}

// DecodeProb returns the probability that a frame at trueSNR (dB) is
// decoded and reported.
func (m MeasurementModel) DecodeProb(trueSNR float64) float64 {
	if math.IsInf(trueSNR, -1) {
		return 0
	}
	p := 1 / (1 + math.Exp(-(trueSNR-m.DecodeThresholdDB)/m.DecodeWidthDB))
	return p * (1 - m.BaseMissProb)
}

// Terms are the measurement model's three functions of the true SNR: the
// decode probability, the reading-noise boost and the outlier probability.
// A receiver that hears the same true SNR again (the chamber campaign's
// repeated sweeps at one pose) computes them once with
// MeasurementModel.Terms and draws each report with ObserveTerms.
type Terms struct {
	DecodeProb  float64
	NoiseBoost  float64
	OutlierProb float64
}

// Terms returns the model's terms at trueSNR, the values Observe computes.
func (m MeasurementModel) Terms(trueSNR float64) Terms {
	return Terms{
		DecodeProb:  m.DecodeProb(trueSNR),
		NoiseBoost:  m.noiseBoost(trueSNR),
		OutlierProb: m.outlierProb(trueSNR),
	}
}

// noiseBoost is the extra reading noise at trueSNR: fluctuations grow
// toward LowSNRNoiseBoost on weak channels.
func (m MeasurementModel) noiseBoost(trueSNR float64) float64 {
	return m.LowSNRNoiseBoost / (1 + math.Exp((trueSNR-2.0)/2.0))
}

// outlierProb is the per-reading outlier probability at trueSNR. Outliers
// concentrate on weak channels ("especially channels with low gains
// resulted in high signal strength deviations").
func (m MeasurementModel) outlierProb(trueSNR float64) float64 {
	return m.OutlierProb * (0.3 + 0.7/(1+math.Exp((trueSNR-3.0)/2.0)))
}

// Observe produces the firmware's report for a frame received at trueSNR,
// or ok=false when the frame is missed (not decodable, or silently
// dropped by the firmware). The noise and outlier terms are computed only
// for a decoded frame.
func (m MeasurementModel) Observe(trueSNR float64, rng *stats.RNG) (Measurement, bool) {
	if !rng.Bool(m.DecodeProb(trueSNR)) {
		return Measurement{}, false
	}
	return m.draw(trueSNR, m.noiseBoost(trueSNR), m.outlierProb(trueSNR), rng), true
}

// ObserveTerms is Observe with the terms at trueSNR precomputed (t must be
// m.Terms(trueSNR)): the same draws in the same order, so the same report.
func (m MeasurementModel) ObserveTerms(trueSNR float64, t Terms, rng *stats.RNG) (Measurement, bool) {
	if !rng.Bool(t.DecodeProb) {
		return Measurement{}, false
	}
	return m.draw(trueSNR, t.NoiseBoost, t.OutlierProb, rng), true
}

// draw makes the reading draws of a decoded frame: SNR noise, SNR
// outlier, RSSI noise, RSSI outlier. Outliers are capped at twice their
// scale.
func (m *MeasurementModel) draw(trueSNR, boost, pOut float64, rng *stats.RNG) Measurement {
	snr := trueSNR + rng.Norm(0, m.SNRNoiseStdDB+boost)
	if rng.Bool(pOut) {
		snr += clampF(rng.StudentTish(m.OutlierScaleDB), -2*m.OutlierScaleDB, 2*m.OutlierScaleDB)
	}
	rssi := trueSNR + m.NoiseFloorDBm + rng.Norm(0, m.RSSINoiseStdDB+boost)
	if rng.Bool(pOut) {
		rssi += clampF(rng.StudentTish(m.OutlierScaleDB), -2*m.OutlierScaleDB, 2*m.OutlierScaleDB)
	}
	return Measurement{
		SNR:  quantizeClamp(snr, SNRQuantumDB, SNRMinDB, SNRMaxDB),
		RSSI: quantize(rssi, RSSIQuantumDB),
	}
}

func quantize(v, quantum float64) float64 {
	return math.Round(v/quantum) * quantum
}

func quantizeClamp(v, quantum, lo, hi float64) float64 {
	v = quantize(v, quantum)
	switch {
	case v < lo:
		return lo
	case v > hi:
		return hi
	}
	return v
}

func clampF(v, lo, hi float64) float64 {
	switch {
	case v < lo:
		return lo
	case v > hi:
		return hi
	}
	return v
}
