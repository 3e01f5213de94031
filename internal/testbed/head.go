// Package testbed reproduces the paper's experimental apparatus: the
// stepper-driven rotation head (microstepping azimuth precision, manually
// tilted elevation with imperfect leveling), the anechoic-chamber pattern
// measurement campaign of Section 4, and the lab / conference-room
// environment scans of Section 6.
package testbed

import (
	"math"

	"talon/internal/channel"
	"talon/internal/stats"
	"talon/internal/wil"
)

// RotationHead positions the device under test. Azimuth is driven by a
// step motor with microstepping ("high rotation precision"); elevation is
// tilted manually, which the paper could not do with sub-degree precision
// despite a digital mechanic's level.
type RotationHead struct {
	// AzStep is the microstepping resolution in degrees.
	AzStep float64
	// TiltErrStd is the standard deviation of the manual tilt error in
	// degrees; the realized tilt is redrawn whenever the tilt changes.
	TiltErrStd float64

	rng          *stats.RNG
	az           float64 // realized azimuth
	tilt         float64 // commanded tilt
	tiltRealized float64
}

// NewRotationHead builds the head used in the paper's campaigns: 0.05°
// microstepping and ±0.75° manual tilt error.
func NewRotationHead(rng *stats.RNG) *RotationHead {
	return &RotationHead{AzStep: 0.05, TiltErrStd: 0.75, rng: rng}
}

// SetAzimuth rotates to az (degrees) and returns the realized angle after
// step quantization.
func (h *RotationHead) SetAzimuth(az float64) float64 {
	if h.AzStep > 0 {
		az = math.Round(az/h.AzStep) * h.AzStep
	}
	h.az = az
	return az
}

// SetTilt tilts the head to el (degrees) and returns the realized tilt
// including the manual-leveling error.
func (h *RotationHead) SetTilt(el float64) float64 {
	h.tilt = el
	h.tiltRealized = el
	if h.TiltErrStd > 0 && h.rng != nil {
		h.tiltRealized = el + h.rng.Norm(0, h.TiltErrStd)
	}
	return h.tiltRealized
}

// Tilt returns the realized tilt.
func (h *RotationHead) Tilt() float64 { return h.tiltRealized }

// Apply orients the device under test so that a probe on the head's
// reference axis appears at local angles (-azimuth, -tilt): rotating the
// head by ρ moves the fixed probe to local azimuth -ρ in the DUT frame.
func (h *RotationHead) Apply(dut *wil.Device) {
	p := dut.Pose()
	p.Yaw = h.az
	p.Tilt = h.tiltRealized
	dut.SetPose(p)
}

// PointAt orients the device under test so that the chosen local pattern
// direction (az, el) faces the probe: yaw = -az, tilt = -el (with the
// head's imperfections applied).
func (h *RotationHead) PointAt(dut *wil.Device, az, el float64) (realAz, realEl float64) {
	realAz = -h.SetAzimuth(-az)
	realEl = -h.SetTilt(-el)
	h.Apply(dut)
	return realAz, realEl
}

// FacingPoses returns canonical testbed poses: the device under test at
// the origin and the probe at distance meters down the +x axis, facing
// back.
func FacingPoses(distance, height float64) (dut, probe channel.Pose) {
	dut = channel.Pose{}
	dut.Pos.Z = height
	probe = channel.Pose{Yaw: 180}
	probe.Pos.X = distance
	probe.Pos.Z = height
	return dut, probe
}
