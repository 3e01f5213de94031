package pattern

import (
	"math"
	"testing"
	"testing/quick"

	"talon/internal/geom"
)

func mustGrid(t testing.TB, azMin, azMax, azStep, elMin, elMax, elStep float64) *geom.Grid {
	t.Helper()
	g, err := geom.UniformGrid(azMin, azMax, azStep, elMin, elMax, elStep)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestNewAllMissing(t *testing.T) {
	g := mustGrid(t, -10, 10, 5, 0, 10, 5)
	p := New(g)
	if p.Missing() != g.Size() {
		t.Fatalf("Missing = %d, want %d", p.Missing(), g.Size())
	}
	if !math.IsNaN(p.At(0, 0)) {
		t.Fatal("At on empty pattern not NaN")
	}
	az, el, gain := p.Peak()
	if !math.IsNaN(az) || !math.IsNaN(el) || !math.IsNaN(gain) {
		t.Fatal("Peak on empty pattern not NaN")
	}
}

func TestFromFuncAndAt(t *testing.T) {
	g := mustGrid(t, -10, 10, 1, -5, 5, 1)
	// A linear field is reproduced exactly by bilinear interpolation.
	f := func(az, el float64) float64 { return 2*az + 3*el + 1 }
	p := FromFunc(g, f)
	for _, c := range []struct{ az, el float64 }{
		{0, 0}, {-10, -5}, {10, 5}, {1.5, 2.25}, {-7.3, 4.9},
	} {
		want := f(c.az, c.el)
		if got := p.At(c.az, c.el); math.Abs(got-want) > 1e-9 {
			t.Errorf("At(%v, %v) = %v, want %v", c.az, c.el, got, want)
		}
	}
}

func TestAtClampsOutside(t *testing.T) {
	g := mustGrid(t, -10, 10, 1, 0, 5, 1)
	p := FromFunc(g, func(az, el float64) float64 { return az + el })
	if got := p.At(-50, 2); got != p.At(-10, 2) {
		t.Fatalf("clamp left: %v vs %v", got, p.At(-10, 2))
	}
	if got := p.At(50, 7); got != p.At(10, 5) {
		t.Fatalf("clamp corner: %v", got)
	}
}

func TestAtNearMissing(t *testing.T) {
	g := mustGrid(t, 0, 1, 1, 0, 1, 1)
	p := New(g)
	p.Set(0, 0, 5) // only corner (az=0, el=0) valid
	if got := p.At(0.1, 0.1); got != 5 {
		t.Fatalf("nearest-valid fallback = %v, want 5", got)
	}
	if got := p.At(0.9, 0.9); got != 5 {
		t.Fatalf("nearest-valid fallback far corner = %v, want 5", got)
	}
}

func TestPeak(t *testing.T) {
	g := mustGrid(t, -90, 90, 1, 0, 30, 5)
	p := FromFunc(g, func(az, el float64) float64 {
		return -math.Pow(az-42, 2)/100 - math.Pow(el-10, 2)/10
	})
	az, el, gain := p.Peak()
	if az != 42 || el != 10 {
		t.Fatalf("Peak at (%v, %v), want (42, 10)", az, el)
	}
	if gain != 0 {
		t.Fatalf("Peak gain = %v", gain)
	}
}

func TestCloneIndependence(t *testing.T) {
	g := mustGrid(t, 0, 2, 1, 0, 0, 1)
	p := FromFunc(g, func(az, el float64) float64 { return az })
	q := p.Clone()
	q.Set(0, 0, 99)
	if p.AtIndex(0, 0) == 99 {
		t.Fatal("Clone shares storage")
	}
	if p.Grid() != q.Grid() {
		t.Fatal("Clone should share the immutable grid")
	}
}

func TestDirectivityAndStats(t *testing.T) {
	g := mustGrid(t, -90, 90, 1, 0, 0, 1)
	flat := FromFunc(g, func(az, el float64) float64 { return 3 })
	if d := flat.Directivity(); d != 0 {
		t.Fatalf("flat directivity = %v", d)
	}
	peaky := FromFunc(g, func(az, el float64) float64 {
		if az == 0 {
			return 20
		}
		return 0
	})
	if d := peaky.Directivity(); d < 15 {
		t.Fatalf("peaky directivity = %v", d)
	}
	if m := flat.MeanGain(); m != 3 {
		t.Fatalf("MeanGain = %v", m)
	}
	if m := flat.MaxGain(); m != 3 {
		t.Fatalf("MaxGain = %v", m)
	}
}

func TestAzimuthCut(t *testing.T) {
	g := mustGrid(t, -10, 10, 10, 0, 20, 10)
	p := FromFunc(g, func(az, el float64) float64 { return el })
	cut := p.AzimuthCut(11)
	for _, v := range cut {
		if v != 10 {
			t.Fatalf("AzimuthCut(11) row = %v, want all 10", cut)
		}
	}
}

func TestBilinearWithinBoundsProperty(t *testing.T) {
	g := mustGrid(t, -30, 30, 3, 0, 30, 3)
	p := FromFunc(g, func(az, el float64) float64 { return math.Sin(az/10) + math.Cos(el/10) })
	lo, hi := math.Inf(1), math.Inf(-1)
	for e := 0; e < g.NumEl(); e++ {
		for a := 0; a < g.NumAz(); a++ {
			v := p.AtIndex(a, e)
			lo = math.Min(lo, v)
			hi = math.Max(hi, v)
		}
	}
	f := func(az, el float64) bool {
		az = math.Mod(math.Abs(az), 60) - 30
		el = math.Mod(math.Abs(el), 30)
		if math.IsNaN(az) || math.IsNaN(el) {
			return true
		}
		v := p.At(az, el)
		return v >= lo-1e-9 && v <= hi+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
