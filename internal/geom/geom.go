// Package geom provides the spherical geometry used throughout the
// sector-selection code base: azimuth/elevation angles in degrees, unit
// direction vectors, angular distances and sampling grids.
//
// Conventions (matching the paper):
//
//   - Azimuth φ is measured in the horizontal plane, in degrees, wrapped to
//     [-180, 180). 0° is the array boresight, positive angles to the left.
//   - Elevation θ is measured from the horizontal plane upwards, in degrees,
//     clamped to [-90, 90].
//   - Directions are unit vectors with x toward boresight, y to the left and
//     z up, i.e. x = cosθ·cosφ, y = cosθ·sinφ, z = sinθ.
//
// All exported APIs take degrees; radians are used only inside math kernels.
package geom

import "math"

// Deg2Rad converts degrees to radians.
func Deg2Rad(deg float64) float64 { return deg * math.Pi / 180 }

// Rad2Deg converts radians to degrees.
func Rad2Deg(rad float64) float64 { return rad * 180 / math.Pi }

// WrapAz wraps an azimuth angle to the canonical interval [-180, 180).
func WrapAz(deg float64) float64 {
	d := math.Mod(deg+180, 360)
	if d < 0 {
		d += 360
	}
	return d - 180
}

// ClampEl clamps an elevation angle to [-90, 90].
func ClampEl(deg float64) float64 {
	switch {
	case deg < -90:
		return -90
	case deg > 90:
		return 90
	}
	return deg
}

// AzDist returns the absolute wrapped azimuth distance between two azimuth
// angles, in [0, 180].
func AzDist(a, b float64) float64 { return math.Abs(WrapAz(a - b)) }

// Direction is a unit vector on the sphere.
type Direction struct {
	X, Y, Z float64
}

// FromAngles builds the unit direction vector for azimuth az and elevation
// el (degrees).
func FromAngles(az, el float64) Direction {
	a, e := Deg2Rad(az), Deg2Rad(ClampEl(el))
	ce := math.Cos(e)
	return Direction{
		X: ce * math.Cos(a),
		Y: ce * math.Sin(a),
		Z: math.Sin(e),
	}
}

// Angles returns the azimuth and elevation (degrees) of the direction.
// The zero Direction yields (0, 0).
func (d Direction) Angles() (az, el float64) {
	n := d.Norm()
	if n == 0 {
		return 0, 0
	}
	el = Rad2Deg(math.Asin(clamp(d.Z/n, -1, 1)))
	az = Rad2Deg(math.Atan2(d.Y, d.X))
	return WrapAz(az), el
}

// Dot returns the inner product of two directions.
func (d Direction) Dot(o Direction) float64 { return d.X*o.X + d.Y*o.Y + d.Z*o.Z }

// Norm returns the Euclidean length of the vector.
func (d Direction) Norm() float64 { return math.Sqrt(d.Dot(d)) }

// Scale returns the vector scaled by s.
func (d Direction) Scale(s float64) Direction { return Direction{d.X * s, d.Y * s, d.Z * s} }

// Add returns the vector sum d+o.
func (d Direction) Add(o Direction) Direction { return Direction{d.X + o.X, d.Y + o.Y, d.Z + o.Z} }

// Sub returns the vector difference d-o.
func (d Direction) Sub(o Direction) Direction { return Direction{d.X - o.X, d.Y - o.Y, d.Z - o.Z} }

// Normalize returns the unit vector pointing in the same direction.
// The zero vector is returned unchanged.
func (d Direction) Normalize() Direction {
	n := d.Norm()
	if n == 0 {
		return d
	}
	return d.Scale(1 / n)
}

// RotateAz returns the direction rotated by deg degrees around the vertical
// (z) axis. Positive angles rotate from x toward y, i.e. they add to the
// azimuth of the direction.
func (d Direction) RotateAz(deg float64) Direction {
	r := Deg2Rad(deg)
	c, s := math.Cos(r), math.Sin(r)
	return Direction{
		X: c*d.X - s*d.Y,
		Y: s*d.X + c*d.Y,
		Z: d.Z,
	}
}

// RotateEl returns the direction rotated by deg degrees around the y axis
// so that positive angles tilt the boresight (x axis) upwards.
func (d Direction) RotateEl(deg float64) Direction {
	r := Deg2Rad(deg)
	c, s := math.Cos(r), math.Sin(r)
	return Direction{
		X: c*d.X - s*d.Z,
		Y: d.Y,
		Z: s*d.X + c*d.Z,
	}
}

// Point is a position in 3D space, in meters.
type Point struct {
	X, Y, Z float64
}

// Sub returns the displacement vector from o to p.
func (p Point) Sub(o Point) Direction { return Direction{p.X - o.X, p.Y - o.Y, p.Z - o.Z} }

// Add displaces the point by the vector v.
func (p Point) Add(v Direction) Point { return Point{p.X + v.X, p.Y + v.Y, p.Z + v.Z} }

// Dist returns the Euclidean distance between two points in meters.
func (p Point) Dist(o Point) float64 { return p.Sub(o).Norm() }

func clamp(v, lo, hi float64) float64 {
	switch {
	case v < lo:
		return lo
	case v > hi:
		return hi
	}
	return v
}
