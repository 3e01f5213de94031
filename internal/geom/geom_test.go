package geom

import (
	"math"
	"testing"
	"testing/quick"
)

func almostEq(a, b, tol float64) bool {
	if math.IsNaN(a) || math.IsNaN(b) {
		return false
	}
	return math.Abs(a-b) <= tol
}

func TestWrapAz(t *testing.T) {
	cases := []struct{ in, want float64 }{
		{0, 0}, {180, -180}, {-180, -180}, {190, -170}, {-190, 170},
		{360, 0}, {-360, 0}, {540, -180}, {45, 45}, {-45, -45},
		{720 + 30, 30}, {-720 - 30, -30},
	}
	for _, c := range cases {
		if got := WrapAz(c.in); !almostEq(got, c.want, 1e-9) {
			t.Errorf("WrapAz(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestWrapAzProperty(t *testing.T) {
	f := func(deg float64) bool {
		if math.IsNaN(deg) || math.IsInf(deg, 0) || math.Abs(deg) > 1e12 {
			return true
		}
		w := WrapAz(deg)
		if w < -180 || w >= 180 {
			return false
		}
		// Wrapping must preserve the angle modulo 360.
		diff := math.Mod(deg-w, 360)
		if diff < 0 {
			diff += 360
		}
		return diff < 1e-6 || diff > 360-1e-6
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestClampEl(t *testing.T) {
	for _, c := range []struct{ in, want float64 }{
		{0, 0}, {90, 90}, {-90, -90}, {91, 90}, {-91, -90}, {45.5, 45.5},
	} {
		if got := ClampEl(c.in); got != c.want {
			t.Errorf("ClampEl(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestAzDist(t *testing.T) {
	cases := []struct{ a, b, want float64 }{
		{0, 0, 0}, {10, -10, 20}, {170, -170, 20}, {-90, 90, 180}, {179, -179, 2},
	}
	for _, c := range cases {
		if got := AzDist(c.a, c.b); !almostEq(got, c.want, 1e-9) {
			t.Errorf("AzDist(%v, %v) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

func TestFromAnglesRoundTrip(t *testing.T) {
	for az := -175.0; az <= 175; az += 12.5 {
		for el := -85.0; el <= 85; el += 8.5 {
			d := FromAngles(az, el)
			if !almostEq(d.Norm(), 1, 1e-12) {
				t.Fatalf("FromAngles(%v, %v) not unit: %v", az, el, d.Norm())
			}
			gaz, gel := d.Angles()
			if !almostEq(gaz, az, 1e-9) || !almostEq(gel, el, 1e-9) {
				t.Fatalf("round trip (%v, %v) -> (%v, %v)", az, el, gaz, gel)
			}
		}
	}
}

func TestAnglesAtPoles(t *testing.T) {
	up := FromAngles(0, 90)
	if !almostEq(up.Z, 1, 1e-12) {
		t.Fatalf("up vector = %+v", up)
	}
	_, el := up.Angles()
	if !almostEq(el, 90, 1e-9) {
		t.Fatalf("pole elevation = %v", el)
	}
	var zero Direction
	az, el := zero.Angles()
	if az != 0 || el != 0 {
		t.Fatalf("zero vector angles = (%v, %v), want (0, 0)", az, el)
	}
}

func TestRotateAz(t *testing.T) {
	d := FromAngles(10, 0).RotateAz(25)
	az, el := d.Angles()
	if !almostEq(az, 35, 1e-9) || !almostEq(el, 0, 1e-9) {
		t.Fatalf("RotateAz: got (%v, %v), want (35, 0)", az, el)
	}
}

func TestRotateEl(t *testing.T) {
	d := FromAngles(0, 0).RotateEl(30)
	az, el := d.Angles()
	if !almostEq(az, 0, 1e-9) || !almostEq(el, 30, 1e-9) {
		t.Fatalf("RotateEl: got (%v, %v), want (0, 30)", az, el)
	}
}

func TestRotationInverseProperty(t *testing.T) {
	f := func(az, el, rot float64) bool {
		az, el = WrapAz(az), ClampEl(math.Mod(el, 90))
		rot = math.Mod(rot, 360)
		if math.IsNaN(az + el + rot) {
			return true
		}
		d := FromAngles(az, el)
		back := d.RotateAz(rot).RotateAz(-rot)
		return almostEq(back.X, d.X, 1e-9) && almostEq(back.Y, d.Y, 1e-9) && almostEq(back.Z, d.Z, 1e-9)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPointOps(t *testing.T) {
	a := Point{1, 2, 3}
	b := Point{4, 6, 3}
	if got := a.Dist(b); !almostEq(got, 5, 1e-12) {
		t.Fatalf("Dist = %v, want 5", got)
	}
	if got := b.Sub(a); got != (Direction{3, 4, 0}) {
		t.Fatalf("Sub = %+v", got)
	}
	if got := a.Add(Direction{1, 1, 1}); got != (Point{2, 3, 4}) {
		t.Fatalf("Add = %+v", got)
	}
}

func TestDirectionHelpers(t *testing.T) {
	d := Direction{3, 4, 0}
	if n := d.Normalize().Norm(); !almostEq(n, 1, 1e-12) {
		t.Fatalf("Normalize norm = %v", n)
	}
	var zero Direction
	if zero.Normalize() != zero {
		t.Fatal("Normalize of zero changed it")
	}
	if got := d.Scale(2); got != (Direction{6, 8, 0}) {
		t.Fatalf("Scale = %+v", got)
	}
	if got := d.Add(Direction{1, 1, 1}).Sub(Direction{1, 1, 1}); got != d {
		t.Fatalf("Add/Sub = %+v", got)
	}
}
