package antenna

import (
	"math"
	"math/cmplx"
	"testing"

	"talon/internal/geom"
	"talon/internal/sector"
	"talon/internal/stats"
)

// referenceGain is the per-element gain loop Array.Gain ran before the
// direction-only terms moved into Steering: every call recomputes the
// direction, each element's phasor through cmplx.Exp, and the envelope,
// mask and ripple terms. It is the oracle the Steering must match bit for
// bit.
func referenceGain(a *Array, w Weights, az, el float64) float64 {
	n := a.NumElements()
	if len(w.Phase) != n || len(w.On) != n {
		return math.Inf(-1)
	}
	dir := geom.FromAngles(az, el)
	ky := 2 * math.Pi * dir.Y
	kz := 2 * math.Pi * dir.Z
	states := float64(a.PhaseStates())
	if w.Amp != nil && len(w.Amp) != n {
		return math.Inf(-1)
	}
	var sum complex128
	active := 0
	for k := 0; k < n; k++ {
		if !w.On[k] {
			continue
		}
		active++
		amp := a.gainLin[k]
		if w.Amp != nil {
			amp *= float64(w.Amp[k]+1) / AmpStates
		}
		phase := float64(w.Phase[k])/states*2*math.Pi + a.phaseErr[k]
		geo := ky*a.posY[k] + kz*a.posZ[k]
		sum += complex(amp, 0) * cmplx.Exp(complex(0, geo+phase))
	}
	if active == 0 {
		return math.Inf(-1)
	}
	p := real(sum)*real(sum) + imag(sum)*imag(sum)
	gainDB := stats.DB(p / float64(active))
	gainDB += a.elementEnvelopeDB(az, el)
	gainDB += a.chassisMaskDB(az, el)
	gainDB += a.frontRippleDB(az, el)
	return gainDB
}

// randomSteeringWeights draws weights with random phase codes, about one
// element in five switched off, and Amp codes on half of the draws. Now
// and then a code lies past PhaseStates, which Gain interprets as
// code·2π/PhaseStates like any other.
func randomSteeringWeights(a *Array, rng *stats.RNG) Weights {
	w := a.RandomWeights(rng)
	for k := range w.On {
		w.On[k] = !rng.Bool(0.2)
		if rng.Bool(0.02) {
			w.Phase[k] = uint8(a.PhaseStates() + rng.Intn(3))
		}
	}
	if rng.Bool(0.5) {
		w.Amp = make([]uint8, a.NumElements())
		for k := range w.Amp {
			w.Amp[k] = uint8(rng.Intn(AmpStates))
		}
	}
	return w
}

// TestSteeringMatchesGain reuses one Steering across direction sequences
// that change azimuth only, elevation only, alternate between two
// directions and repeat a direction, and checks every gain against a fresh
// Array.Gain and the reference loop, bit for bit. Azimuths reach past
// ±120° into the chassis mask.
func TestSteeringMatchesGain(t *testing.T) {
	type dir struct{ az, el float64 }
	var azOnly, elOnly, alternating, repeated []dir
	for az := -180.0; az <= 180; az += 7.3 {
		azOnly = append(azOnly, dir{az, 12})
	}
	for el := -40.0; el <= 40; el += 3.1 {
		elOnly = append(elOnly, dir{-135, el})
	}
	for i := 0; i < 12; i++ {
		alternating = append(alternating, dir{25, 8}, dir{-150, 8}, dir{25, -4})
	}
	for i := 0; i < 6; i++ {
		repeated = append(repeated, dir{130.25, 20})
	}
	sequences := []struct {
		name string
		dirs []dir
	}{
		{"az-only", azOnly},
		{"el-only", elOnly},
		{"alternating", alternating},
		{"repeated", repeated},
	}
	threeBit := TalonConfig()
	threeBit.PhaseBits = 3
	arrays := []struct {
		name string
		cfg  Config
	}{
		{"talon", TalonConfig()},
		{"3-bit", threeBit},
	}
	for _, ac := range arrays {
		a, err := New(ac.cfg, stats.NewRNG(5))
		if err != nil {
			t.Fatal(err)
		}
		var ws []Weights
		cb := Talon(a)
		for _, id := range append(sector.TalonTX(), sector.RX) {
			if w, ok := cb.Weights(id); ok {
				ws = append(ws, w)
			}
		}
		rng := stats.NewRNG(9)
		for i := 0; i < 40; i++ {
			ws = append(ws, randomSteeringWeights(a, rng))
		}
		for _, seq := range sequences {
			t.Run(ac.name+"/"+seq.name, func(t *testing.T) {
				s := a.NewSteering()
				for _, d := range seq.dirs {
					s.Point(d.az, d.el)
					for i, w := range ws {
						got := s.Gain(w)
						fresh := a.Gain(w, d.az, d.el)
						want := referenceGain(a, w, d.az, d.el)
						if math.Float64bits(got) != math.Float64bits(want) || math.Float64bits(fresh) != math.Float64bits(want) {
							t.Fatalf("(%v, %v) weights %d: steering %v, Array.Gain %v, reference %v", d.az, d.el, i, got, fresh, want)
						}
					}
				}
			})
		}
	}
}

// TestSteeringMismatchedWeights checks that a reused Steering rejects
// weights of the wrong length like Array.Gain does.
func TestSteeringMismatchedWeights(t *testing.T) {
	a := newTalonArray(t, 1)
	s := a.NewSteering()
	s.Point(10, 0)
	w := NewWeights(a.NumElements())
	w.Amp = []uint8{1}
	for _, bad := range []Weights{{}, NewWeights(3), w} {
		if g := s.Gain(bad); !math.IsInf(g, -1) {
			t.Fatalf("mismatched weights gain = %v, want -Inf", g)
		}
	}
}
