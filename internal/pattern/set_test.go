package pattern

import (
	"bytes"
	"math"
	"testing"
	"testing/quick"

	"talon/internal/sector"
)

func buildTestSet(t testing.TB) *Set {
	t.Helper()
	g := mustGrid(t, -90, 90, 5, 0, 30, 10)
	s := NewSet()
	mk := func(id sector.ID, peakAz, peakEl float64) {
		p := FromFunc(g, func(az, el float64) float64 {
			return 12 - math.Hypot(az-peakAz, (el-peakEl)*2)/8
		})
		if err := s.Put(id, p); err != nil {
			t.Fatal(err)
		}
	}
	mk(1, -45, 0)
	mk(2, 0, 10)
	mk(3, 45, 0)
	mk(sector.RX, 0, 0)
	return s
}

func TestSetPutGet(t *testing.T) {
	s := buildTestSet(t)
	if s.Len() != 4 {
		t.Fatalf("Len = %d", s.Len())
	}
	if s.Get(1) == nil || s.Get(9) != nil {
		t.Fatal("Get wrong")
	}
	if err := s.Put(5, nil); err == nil {
		t.Fatal("Put(nil) accepted")
	}
	other := mustGrid(t, 0, 1, 1, 0, 0, 1)
	if err := s.Put(5, New(other)); err == nil {
		t.Fatal("Put with mismatched grid accepted")
	}
}

func TestSetMeanPeakGain(t *testing.T) {
	g := mustGrid(t, -90, 90, 5, 0, 30, 10)
	s := NewSet()
	for id, peak := range map[sector.ID]float64{1: 10, 2: 14, sector.RX: 100} {
		if err := s.Put(id, FromFunc(g, func(az, el float64) float64 {
			return peak - math.Abs(az)/10
		})); err != nil {
			t.Fatal(err)
		}
	}
	if got := s.MeanPeakGain(); got != 12 {
		t.Fatalf("MeanPeakGain = %v, want 12 (RX pattern excluded)", got)
	}
	if got := NewSet().MeanPeakGain(); !math.IsNaN(got) {
		t.Fatalf("empty set MeanPeakGain = %v, want NaN", got)
	}
}

func TestSetIDsSorted(t *testing.T) {
	s := buildTestSet(t)
	ids := s.IDs()
	for i := 1; i < len(ids); i++ {
		if ids[i] <= ids[i-1] {
			t.Fatalf("IDs not ascending: %v", ids)
		}
	}
	tx := s.TXIDs()
	if len(tx) != 3 {
		t.Fatalf("TXIDs = %v", tx)
	}
	for _, id := range tx {
		if id == sector.RX {
			t.Fatal("TXIDs contains RX")
		}
	}
}

func TestBestSector(t *testing.T) {
	s := buildTestSet(t)
	cases := []struct {
		az, el float64
		want   sector.ID
	}{
		{-45, 0, 1}, {0, 10, 2}, {45, 0, 3},
	}
	for _, c := range cases {
		id, gain := s.BestSector(c.az, c.el)
		if id != c.want {
			t.Errorf("BestSector(%v, %v) = %v, want %v", c.az, c.el, id, c.want)
		}
		if math.IsNaN(gain) {
			t.Errorf("BestSector gain NaN")
		}
	}
	empty := NewSet()
	if id, gain := empty.BestSector(0, 0); id != sector.RX || !math.IsNaN(gain) {
		t.Fatalf("empty BestSector = (%v, %v)", id, gain)
	}
}

func TestBestSectorIsArgmaxProperty(t *testing.T) {
	s := buildTestSet(t)
	f := func(az, el float64) bool {
		az = math.Mod(az, 90)
		el = math.Abs(math.Mod(el, 30))
		if math.IsNaN(az) || math.IsNaN(el) {
			return true
		}
		id, gain := s.BestSector(az, el)
		for _, other := range s.TXIDs() {
			if g := s.Get(other).At(az, el); g > gain+1e-9 {
				return false
			}
		}
		return id != sector.RX
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCSVRoundTrip(t *testing.T) {
	s := buildTestSet(t)
	// Punch a NaN hole to exercise missing-sample encoding.
	s.Get(1).Set(0, 0, math.NaN())
	var buf bytes.Buffer
	if err := s.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	assertSetsEqual(t, s, got)
}

func assertSetsEqual(t *testing.T, want, got *Set) {
	t.Helper()
	if got.Len() != want.Len() {
		t.Fatalf("Len = %d, want %d", got.Len(), want.Len())
	}
	for _, id := range want.IDs() {
		wp, gp := want.Get(id), got.Get(id)
		if gp == nil {
			t.Fatalf("sector %v missing after round trip", id)
		}
		if !wp.Grid().Equal(gp.Grid()) {
			t.Fatalf("sector %v grid mismatch", id)
		}
		for e := 0; e < wp.Grid().NumEl(); e++ {
			for a := 0; a < wp.Grid().NumAz(); a++ {
				w, g := wp.AtIndex(a, e), gp.AtIndex(a, e)
				if math.IsNaN(w) != math.IsNaN(g) {
					t.Fatalf("sector %v NaN mismatch at (%d,%d)", id, a, e)
				}
				// CSV writes the shortest exact form, so values match bit for bit.
				if !math.IsNaN(w) && w != g {
					t.Fatalf("sector %v value mismatch at (%d,%d): %v vs %v", id, a, e, w, g)
				}
			}
		}
	}
}

func TestReadCSVErrors(t *testing.T) {
	for name, in := range map[string]string{
		"empty":      "",
		"bad header": "foo,bar\n",
		"bad fields": "sector,az,el,gain\n1,2,3\n",
		"bad sector": "sector,az,el,gain\nxx,0,0,1\n",
		"bad gain":   "sector,az,el,gain\n1,0,0,zz\n",
	} {
		if _, err := ReadCSV(bytes.NewBufferString(in)); err == nil {
			t.Errorf("%s: ReadCSV succeeded", name)
		}
	}
}

func TestSetClone(t *testing.T) {
	s := buildTestSet(t)
	c := s.Clone()
	c.Get(1).Set(0, 0, -99)
	if s.Get(1).AtIndex(0, 0) == -99 {
		t.Fatal("Clone shares pattern storage")
	}
}
