// Package channel models 60 GHz millimeter-wave propagation between two
// devices: free-space path loss, a line-of-sight ray, and first-order
// specular reflections off finite planar reflectors (walls, whiteboards)
// computed with the image method.
//
// Three environment presets mirror the paper's measurement locations: an
// anechoic chamber (pure LOS), a lab (weak multipath, 3 m link) and a
// conference room (reflective whiteboards and walls, 6 m link).
package channel

import (
	"math"

	"talon/internal/geom"
)

// CarrierHz is the IEEE 802.11ad channel-2 carrier frequency.
const CarrierHz = 60.48e9

// fsplConstDB is 20·log10(4π·f/c) for the 60.48 GHz carrier, so that
// FSPL(d) = fsplConstDB + 20·log10(d).
var fsplConstDB = 20 * math.Log10(4*math.Pi*CarrierHz/299792458.0)

// FSPL returns the free-space path loss in dB over d meters at 60.48 GHz.
// Distances below 1 cm are clamped to avoid negative-loss artifacts.
func FSPL(d float64) float64 {
	if d < 0.01 {
		d = 0.01
	}
	return fsplConstDB + 20*math.Log10(d)
}

// Pose is a device placement: a position and the orientation of the array
// boresight. Yaw spins the device about its vertical axis
// (counter-clockwise, degrees); Tilt then tips the whole assembly upward
// about the world's horizontal y axis (degrees) — the composition of the
// paper's rotation head, where the spinning stage is tilted as a unit.
// The device-to-world rotation is R = RotEl(Tilt) ∘ RotAz(Yaw).
type Pose struct {
	Pos  geom.Point
	Yaw  float64
	Tilt float64
}

// ToLocal converts a global direction into the device's array frame and
// returns the local azimuth and elevation in degrees.
func (p Pose) ToLocal(d geom.Direction) (az, el float64) {
	local := d.RotateEl(-p.Tilt).RotateAz(-p.Yaw)
	return local.Angles()
}

// Boresight returns the global direction of the device's array boresight.
func (p Pose) Boresight() geom.Direction {
	return geom.FromAngles(0, 0).RotateAz(p.Yaw).RotateEl(p.Tilt)
}

// Ray is one propagation path from transmitter to receiver.
type Ray struct {
	// AoD and AoA are the global departure/arrival directions (from the
	// TX position toward the first interaction point, and from the RX
	// position back toward the last one).
	AoD, AoA geom.Direction
	// Length is the total unfolded path length in meters.
	Length float64
	// ExtraLossDB is loss beyond free space (reflection loss), >= 0.
	ExtraLossDB float64
	// Reflected marks non-LOS paths.
	Reflected bool
}

// PathLossDB returns the total propagation loss of the ray in dB.
func (r Ray) PathLossDB() float64 { return FSPL(r.Length) + r.ExtraLossDB }

// Reflector is a finite rectangular specular reflector.
type Reflector struct {
	// Center and the unit normal N define the plane; U and V are unit
	// in-plane axes with half-extents HalfU and HalfV meters.
	Center geom.Point
	N      geom.Direction
	U, V   geom.Direction
	HalfU  float64
	HalfV  float64
	// LossDB is the reflection loss in dB (positive).
	LossDB float64
	// Name labels the reflector for diagnostics.
	Name string
}

// NewWallX builds a vertical reflector whose plane is x = x0, spanning
// y ∈ [yMin, yMax] and z ∈ [zMin, zMax].
func NewWallX(name string, x0, yMin, yMax, zMin, zMax, lossDB float64) Reflector {
	return Reflector{
		Center: geom.Point{X: x0, Y: (yMin + yMax) / 2, Z: (zMin + zMax) / 2},
		N:      geom.Direction{X: 1},
		U:      geom.Direction{Y: 1},
		V:      geom.Direction{Z: 1},
		HalfU:  (yMax - yMin) / 2,
		HalfV:  (zMax - zMin) / 2,
		LossDB: lossDB,
		Name:   name,
	}
}

// NewWallY builds a vertical reflector whose plane is y = y0, spanning
// x ∈ [xMin, xMax] and z ∈ [zMin, zMax].
func NewWallY(name string, y0, xMin, xMax, zMin, zMax, lossDB float64) Reflector {
	return Reflector{
		Center: geom.Point{X: (xMin + xMax) / 2, Y: y0, Z: (zMin + zMax) / 2},
		N:      geom.Direction{Y: 1},
		U:      geom.Direction{X: 1},
		V:      geom.Direction{Z: 1},
		HalfU:  (xMax - xMin) / 2,
		HalfV:  (zMax - zMin) / 2,
		LossDB: lossDB,
		Name:   name,
	}
}

// Environment is a propagation scenario: a set of reflectors plus global
// attenuation knobs.
type Environment struct {
	Name       string
	Reflectors []Reflector
	// LOSBlocked suppresses the direct path (for blockage experiments).
	LOSBlocked bool
	// LOSExtraLossDB adds attenuation to the LOS ray only.
	LOSExtraLossDB float64
}

// Rays computes all first-order propagation paths between tx and rx.
// The LOS ray (unless blocked) comes first.
func (e *Environment) Rays(tx, rx geom.Point) []Ray { return e.AppendRays(nil, tx, rx) }

// AppendRays is Rays appending to dst: the same rays in the same order,
// without a fresh slice when dst has room.
func (e *Environment) AppendRays(dst []Ray, tx, rx geom.Point) []Ray {
	if !e.LOSBlocked {
		d := rx.Sub(tx)
		dst = append(dst, Ray{
			AoD:         d.Normalize(),
			AoA:         d.Scale(-1).Normalize(),
			Length:      d.Norm(),
			ExtraLossDB: e.LOSExtraLossDB,
		})
	}
	for _, ref := range e.Reflectors {
		if r, ok := reflect(ref, tx, rx); ok {
			dst = append(dst, r)
		}
	}
	return dst
}

// reflect computes the first-order image-method path off ref, if any.
func reflect(ref Reflector, tx, rx geom.Point) (Ray, bool) {
	// Signed distances of endpoints from the plane.
	dt := tx.Sub(ref.Center).Dot(ref.N)
	dr := rx.Sub(ref.Center).Dot(ref.N)
	// Both endpoints must be on the same, nonzero side.
	if dt*dr <= 1e-12 {
		return Ray{}, false
	}
	// Mirror the transmitter across the plane.
	image := tx.Add(ref.N.Scale(-2 * dt))
	seg := rx.Sub(image)
	den := seg.Dot(ref.N)
	if math.Abs(den) < 1e-12 {
		return Ray{}, false
	}
	t := ref.Center.Sub(image).Dot(ref.N) / den
	if t <= 0 || t >= 1 {
		return Ray{}, false
	}
	hit := image.Add(seg.Scale(t))
	off := hit.Sub(ref.Center)
	if math.Abs(off.Dot(ref.U)) > ref.HalfU || math.Abs(off.Dot(ref.V)) > ref.HalfV {
		return Ray{}, false
	}
	return Ray{
		AoD:         hit.Sub(tx).Normalize(),
		AoA:         hit.Sub(rx).Normalize(),
		Length:      seg.Norm(),
		ExtraLossDB: ref.LossDB,
		Reflected:   true,
	}, true
}
