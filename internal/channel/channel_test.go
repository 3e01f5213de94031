package channel

import (
	"math"
	"testing"
	"testing/quick"

	"talon/internal/geom"
)

func TestFSPL(t *testing.T) {
	// 60.48 GHz free-space loss at 1 m is about 68.1 dB.
	if got := FSPL(1); math.Abs(got-68.07) > 0.1 {
		t.Fatalf("FSPL(1m) = %v", got)
	}
	// +6 dB per doubling.
	if d := FSPL(6) - FSPL(3); math.Abs(d-6.02) > 0.05 {
		t.Fatalf("doubling delta = %v", d)
	}
	// Clamped near zero.
	if got := FSPL(0); math.IsInf(got, 0) || math.IsNaN(got) {
		t.Fatalf("FSPL(0) = %v", got)
	}
}

func TestPoseToLocal(t *testing.T) {
	// A device yawed 30° sees a source at global azimuth 30° on its
	// boresight.
	p := Pose{Yaw: 30}
	az, el := p.ToLocal(geom.FromAngles(30, 0))
	if math.Abs(az) > 1e-9 || math.Abs(el) > 1e-9 {
		t.Fatalf("local = (%v, %v)", az, el)
	}
	// Tilt moves the apparent elevation down by the tilt angle.
	p = Pose{Tilt: 20}
	_, el = p.ToLocal(geom.FromAngles(0, 20))
	if math.Abs(el) > 1e-9 {
		t.Fatalf("tilted local el = %v", el)
	}
	_, el = p.ToLocal(geom.FromAngles(0, 0))
	if math.Abs(el+20) > 1e-9 {
		t.Fatalf("tilted horizon el = %v, want -20", el)
	}
}

func TestPoseBoresight(t *testing.T) {
	// With a pure yaw or a pure tilt the boresight angles are exact.
	p := Pose{Yaw: 45}
	az, el := geom.Direction.Angles(p.Boresight())
	if math.Abs(az-45) > 1e-9 || math.Abs(el) > 1e-9 {
		t.Fatalf("yawed boresight = (%v, %v)", az, el)
	}
	p = Pose{Tilt: 10}
	az, el = geom.Direction.Angles(p.Boresight())
	if math.Abs(az) > 1e-9 || math.Abs(el-10) > 1e-9 {
		t.Fatalf("tilted boresight = (%v, %v)", az, el)
	}
	// For any pose the boresight maps back to local (0, 0).
	p = Pose{Yaw: 45, Tilt: 10}
	laz, lel := p.ToLocal(p.Boresight())
	if math.Abs(laz) > 1e-9 || math.Abs(lel) > 1e-9 {
		t.Fatalf("boresight local = (%v, %v)", laz, lel)
	}
	// Rotation-head geometry: spinning the yawed device under a tilt
	// keeps a source on the world x axis at exact local angles.
	p = Pose{Yaw: -25, Tilt: -10}
	laz, lel = p.ToLocal(geom.FromAngles(0, 0))
	if math.Abs(laz-25) > 1e-9 || math.Abs(lel-10) > 1e-9 {
		t.Fatalf("head geometry local = (%v, %v), want (25, 10)", laz, lel)
	}
}

func TestLOSRay(t *testing.T) {
	env := AnechoicChamber()
	rays := env.Rays(geom.Point{}, geom.Point{X: 3})
	if len(rays) != 1 {
		t.Fatalf("chamber rays = %d, want 1 (LOS only)", len(rays))
	}
	r := rays[0]
	if r.Reflected {
		t.Fatal("LOS marked reflected")
	}
	if math.Abs(r.Length-3) > 1e-12 {
		t.Fatalf("LOS length = %v", r.Length)
	}
	if az, _ := geom.Direction.Angles(r.AoD); math.Abs(az) > 1e-9 {
		t.Fatalf("AoD az = %v", az)
	}
	if az, _ := geom.Direction.Angles(r.AoA); math.Abs(math.Abs(az)-180) > 1e-9 {
		t.Fatalf("AoA az = %v", az)
	}
	if math.Abs(r.PathLossDB()-FSPL(3)) > 1e-12 {
		t.Fatalf("LOS loss = %v", r.PathLossDB())
	}
}

func TestLOSBlocked(t *testing.T) {
	env := &Environment{Name: "blocked", LOSBlocked: true}
	if rays := env.Rays(geom.Point{}, geom.Point{X: 3}); len(rays) != 0 {
		t.Fatalf("blocked env rays = %d", len(rays))
	}
}

func TestSingleReflection(t *testing.T) {
	// A wall at y=2 between tx (0,0) and rx (4,0): image path length is
	// the classic mirror geometry sqrt(dx² + (2·h)²).
	env := &Environment{
		Name:       "one-wall",
		Reflectors: []Reflector{NewWallY("wall", 2, -10, 10, -10, 10, 5)},
	}
	tx := geom.Point{X: 0, Y: 0, Z: 0}
	rx := geom.Point{X: 4, Y: 0, Z: 0}
	rays := env.Rays(tx, rx)
	if len(rays) != 2 {
		t.Fatalf("rays = %d, want LOS + 1 reflection", len(rays))
	}
	refl := rays[1]
	if !refl.Reflected {
		t.Fatal("second ray not marked reflected")
	}
	wantLen := math.Sqrt(16 + 16) // dx=4, 2h=4
	if math.Abs(refl.Length-wantLen) > 1e-9 {
		t.Fatalf("reflected length = %v, want %v", refl.Length, wantLen)
	}
	if refl.ExtraLossDB != 5 {
		t.Fatalf("extra loss = %v", refl.ExtraLossDB)
	}
	// Departure toward the wall (positive y), arrival from the wall.
	if refl.AoD.Y <= 0 || refl.AoA.Y <= 0 {
		t.Fatalf("reflection directions: AoD %+v AoA %+v", refl.AoD, refl.AoA)
	}
}

func TestReflectionBounds(t *testing.T) {
	// A short wall whose rectangle the mirror point misses produces no ray.
	env := &Environment{
		Name:       "short-wall",
		Reflectors: []Reflector{NewWallY("wall", 2, 10, 12, -10, 10, 5)},
	}
	rays := env.Rays(geom.Point{}, geom.Point{X: 4})
	if len(rays) != 1 {
		t.Fatalf("rays = %d, want LOS only", len(rays))
	}
}

func TestReflectionSameSideRequired(t *testing.T) {
	// Endpoints on opposite sides of the plane: no specular path.
	env := &Environment{
		Name:       "between",
		Reflectors: []Reflector{NewWallY("wall", 0, -10, 10, -10, 10, 5)},
	}
	rays := env.Rays(geom.Point{Y: -1}, geom.Point{X: 4, Y: 1})
	if len(rays) != 1 {
		t.Fatalf("rays = %d, want LOS only", len(rays))
	}
}

func TestReflectionSymmetryProperty(t *testing.T) {
	// Swapping endpoints preserves the path length of each reflection.
	env := ConferenceRoom()
	f := func(x1, y1, x2, y2 float64) bool {
		clampf := func(v, lo, hi float64) float64 {
			if math.IsNaN(v) {
				return lo
			}
			return math.Min(math.Max(math.Mod(v, hi-lo)+lo, lo), hi)
		}
		tx := geom.Point{X: clampf(x1, 0, 6), Y: clampf(y1, -2, 2), Z: 1.2}
		rx := geom.Point{X: clampf(x2, 0, 6), Y: clampf(y2, -2, 2), Z: 1.2}
		if tx.Dist(rx) < 0.1 {
			return true
		}
		fw := env.Rays(tx, rx)
		bw := env.Rays(rx, tx)
		if len(fw) != len(bw) {
			return false
		}
		// AppendRays keeps dst's prefix and appends exactly Rays' rays.
		head := Ray{Length: -1}
		app := env.AppendRays([]Ray{head}, tx, rx)
		if len(app) != len(fw)+1 || app[0] != head {
			return false
		}
		for i, r := range fw {
			if app[i+1] != r {
				return false
			}
		}
		lenSet := func(rays []Ray) []float64 {
			out := make([]float64, len(rays))
			for i, r := range rays {
				out[i] = r.Length
			}
			return out
		}
		a, b := lenSet(fw), lenSet(bw)
		for _, la := range a {
			found := false
			for _, lb := range b {
				if math.Abs(la-lb) < 1e-9 {
					found = true
					break
				}
			}
			if !found {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestPresets(t *testing.T) {
	lab := Lab()
	conf := ConferenceRoom()
	if len(lab.Reflectors) == 0 || len(conf.Reflectors) == 0 {
		t.Fatal("presets without reflectors")
	}
	// The conference room must offer stronger multipath than the lab:
	// compare the strongest reflection against LOS in each.
	strongest := func(env *Environment, tx, rx geom.Point) float64 {
		best := math.Inf(1)
		for _, r := range env.Rays(tx, rx) {
			if r.Reflected && r.PathLossDB() < best {
				best = r.PathLossDB()
			}
		}
		return best
	}
	labTx, labRx := geom.Point{X: 0, Y: 0, Z: 1.2}, geom.Point{X: 3, Y: 0, Z: 1.2}
	confTx, confRx := geom.Point{X: 0, Y: 0, Z: 1.2}, geom.Point{X: 6, Y: 0, Z: 1.2}
	labGap := strongest(lab, labTx, labRx) - FSPL(3)
	confGap := strongest(conf, confTx, confRx) - FSPL(6)
	if confGap >= labGap {
		t.Fatalf("conference-room reflections (%.1f dB over LOS) weaker than lab (%.1f dB)", confGap, labGap)
	}
}
