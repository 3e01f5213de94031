package core

import (
	"testing"

	"talon/internal/sector"
	"talon/internal/stats"
)

func TestRandomProbes(t *testing.T) {
	rng := stats.NewRNG(1)
	avail := sector.TalonTX()
	set, err := RandomProbes(rng, avail, 14)
	if err != nil {
		t.Fatal(err)
	}
	if set.Len() != 14 {
		t.Fatalf("Len = %d", set.Len())
	}
	for _, id := range set.IDs() {
		if !sector.IsTalonTX(id) {
			t.Fatalf("probe %v not a TX sector", id)
		}
	}
	// Order matches the stock sweep (ascending within 1..31, then 61..63).
	ids := set.IDs()
	for i := 1; i < len(ids); i++ {
		if ids[i] <= ids[i-1] {
			t.Fatalf("probe order not the stock sweep order: %v", ids)
		}
	}
}

func TestRandomProbesRange(t *testing.T) {
	rng := stats.NewRNG(1)
	avail := sector.TalonTX()
	if _, err := RandomProbes(rng, avail, 1); err == nil {
		t.Error("m=1 accepted")
	}
	if _, err := RandomProbes(rng, avail, 35); err == nil {
		t.Error("m>len accepted")
	}
	set, err := RandomProbes(rng, avail, 34)
	if err != nil || set.Len() != 34 {
		t.Errorf("full probe set: %v, %v", set, err)
	}
}

func TestRandomProbesVary(t *testing.T) {
	rng := stats.NewRNG(2)
	avail := sector.TalonTX()
	a, _ := RandomProbes(rng, avail, 10)
	b, _ := RandomProbes(rng, avail, 10)
	same := true
	for _, id := range a.IDs() {
		if !b.Contains(id) {
			same = false
		}
	}
	if same {
		t.Fatal("two random draws identical (suspicious)")
	}
}

func TestGainInformedProbes(t *testing.T) {
	set, _ := synthSetup(t)
	probes, err := GainInformedProbes(set, 12)
	if err != nil {
		t.Fatal(err)
	}
	if probes.Len() != 12 {
		t.Fatalf("Len = %d", probes.Len())
	}
	if _, err := GainInformedProbes(set, 1); err == nil {
		t.Error("m=1 accepted")
	}
	if _, err := GainInformedProbes(set, 99); err == nil {
		t.Error("m too large accepted")
	}
	// Deterministic.
	again, _ := GainInformedProbes(set, 12)
	for _, id := range probes.IDs() {
		if !again.Contains(id) {
			t.Fatal("gain-informed selection not deterministic")
		}
	}
}

func TestSweepSelect(t *testing.T) {
	probes := []Probe{
		{Sector: 3, OK: true},
		{Sector: 8, OK: true},
		{Sector: 12, OK: false},
	}
	probes[0].Meas.SNR = 4
	probes[1].Meas.SNR = 9
	probes[2].Meas.SNR = 99 // missing: must lose despite the high value
	id, ok := SweepSelect(probes)
	if !ok || id != 8 {
		t.Fatalf("SweepSelect = %v, %v", id, ok)
	}
	if _, ok := SweepSelect(nil); ok {
		t.Fatal("empty probes selected something")
	}
	if _, ok := SweepSelect([]Probe{{Sector: 1}}); ok {
		t.Fatal("all-missing probes selected something")
	}
}

func TestAdaptiveController(t *testing.T) {
	c := NewAdaptiveController(6, 30)
	if c.M() != 30 {
		t.Fatalf("initial M = %d", c.M())
	}
	// Stable scene: M shrinks toward the minimum.
	for i := 0; i < 60; i++ {
		c.Observe(17)
	}
	if c.M() != 6 {
		t.Fatalf("M after long stability = %d, want 6", c.M())
	}
	// A selection change grows the budget again.
	c.Observe(21)
	if c.M() <= 6 {
		t.Fatalf("M after change = %d", c.M())
	}
	// Repeated changes saturate at Max.
	for i := 0; i < 20; i++ {
		c.Observe(sector.ID(i%30 + 1))
	}
	if c.M() != 30 {
		t.Fatalf("M under mobility = %d, want 30", c.M())
	}
}

func TestAdaptiveControllerBounds(t *testing.T) {
	c := NewAdaptiveController(0, -5)
	if c.Min < 2 || c.Max < c.Min {
		t.Fatalf("bounds not normalized: %+v", c)
	}
}
