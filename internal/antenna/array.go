// Package antenna models the 32-element planar phased array of the
// QCA9500 front end in the Talon AD7200, including the low-cost hardware
// imperfections the paper stresses: coarse (2-bit) phase shifters, static
// per-element phase/gain errors, a patch-element envelope and chassis
// blockage that distorts patterns behind the device (|azimuth| > 120°).
//
// The array turns per-element weights into far-field gain; the codebook in
// codebook.go reproduces the qualitative sector inventory of the Talon
// firmware (strongly directional sectors, multi-lobe sectors, one wide
// sector, a few low-gain sectors and a quasi-omni receive sector).
package antenna

import (
	"fmt"
	"math"

	"talon/internal/geom"
	"talon/internal/stats"
)

// Config describes the array geometry and quantization.
type Config struct {
	// NY and NZ are the element counts along the horizontal (y) and
	// vertical (z) axes. The Talon's QCA9500 module drives 32 elements.
	NY, NZ int
	// SpacingY and SpacingZ are element spacings in wavelengths.
	SpacingY, SpacingZ float64
	// PhaseBits is the phase-shifter resolution; 2 bits (90° steps) for
	// low-cost 60 GHz front ends.
	PhaseBits int
	// PhaseErrStd and GainErrStdDB are the per-element static hardware
	// errors (radians / dB).
	PhaseErrStd  float64
	GainErrStdDB float64
	// FrontRippleStdDB scales the device-specific direction-dependent
	// gain ripple across the front hemisphere — packaging, housing and
	// coupling effects that make each unit's realized patterns deviate
	// from the geometric theory (the paper's reason to measure patterns
	// per device instead of trusting the array factor).
	FrontRippleStdDB float64
	// ElementExponent shapes the per-element (patch) envelope
	// cos(angle)^ElementExponent toward boresight.
	ElementExponent float64
}

// TalonConfig returns the configuration used for the simulated Talon
// AD7200 front end: an 8×4 = 32 element array with 2-bit phase shifters
// and moderate element-level imperfections.
func TalonConfig() Config {
	return Config{
		NY:               8,
		NZ:               4,
		SpacingY:         0.5,
		SpacingZ:         0.5,
		PhaseBits:        2,
		PhaseErrStd:      0.25,
		GainErrStdDB:     0.8,
		FrontRippleStdDB: 1.1,
		ElementExponent:  1.2,
	}
}

// Array is an instantiated phased array with its per-device imperfections
// frozen. Arrays are safe for concurrent read-only use.
type Array struct {
	cfg Config
	// posY, posZ are element coordinates in wavelengths.
	posY, posZ []float64
	// phaseErr (radians) and gainLin (linear amplitude factor) are the
	// static per-element errors of this device.
	phaseErr []float64
	gainLin  []float64
	// blockage ripple coefficients for the chassis mask (per device).
	rippleAmp   []float64
	ripplePhase []float64
	// front-hemisphere ripple coefficients (per device).
	frontAzAmp, frontAzPhase []float64
	frontElAmp, frontElPhase []float64
}

// New builds an array for cfg with per-device imperfections drawn from rng.
// The same seed yields the identical device.
func New(cfg Config, rng *stats.RNG) (*Array, error) {
	if cfg.NY <= 0 || cfg.NZ <= 0 {
		return nil, fmt.Errorf("antenna: invalid element counts %dx%d", cfg.NY, cfg.NZ)
	}
	if cfg.PhaseBits < 1 || cfg.PhaseBits > 8 {
		return nil, fmt.Errorf("antenna: phase bits %d out of range [1,8]", cfg.PhaseBits)
	}
	if cfg.SpacingY <= 0 || cfg.SpacingZ <= 0 {
		return nil, fmt.Errorf("antenna: element spacing must be positive")
	}
	n := cfg.NY * cfg.NZ
	a := &Array{
		cfg:      cfg,
		posY:     make([]float64, n),
		posZ:     make([]float64, n),
		phaseErr: make([]float64, n),
		gainLin:  make([]float64, n),
	}
	for iz := 0; iz < cfg.NZ; iz++ {
		for iy := 0; iy < cfg.NY; iy++ {
			k := iz*cfg.NY + iy
			a.posY[k] = (float64(iy) - float64(cfg.NY-1)/2) * cfg.SpacingY
			a.posZ[k] = (float64(iz) - float64(cfg.NZ-1)/2) * cfg.SpacingZ
		}
	}
	for k := 0; k < n; k++ {
		a.phaseErr[k] = rng.Norm(0, cfg.PhaseErrStd)
		a.gainLin[k] = math.Pow(10, rng.Norm(0, cfg.GainErrStdDB)/20)
	}
	// Chassis ripple: a small random Fourier series that distorts the
	// region behind the device, unique per unit.
	const rippleTerms = 5
	a.rippleAmp = make([]float64, rippleTerms)
	a.ripplePhase = make([]float64, rippleTerms)
	for i := range a.rippleAmp {
		a.rippleAmp[i] = rng.Uniform(0.5, 2.5)
		a.ripplePhase[i] = rng.Uniform(0, 2*math.Pi)
	}
	// Front-hemisphere ripple: gentle direction-dependent gain
	// distortion from the housing, unique per unit.
	const frontTerms = 3
	a.frontAzAmp = make([]float64, frontTerms)
	a.frontAzPhase = make([]float64, frontTerms)
	a.frontElAmp = make([]float64, frontTerms)
	a.frontElPhase = make([]float64, frontTerms)
	for i := 0; i < frontTerms; i++ {
		a.frontAzAmp[i] = rng.Norm(0, cfg.FrontRippleStdDB/1.6)
		a.frontAzPhase[i] = rng.Uniform(0, 2*math.Pi)
		a.frontElAmp[i] = rng.Norm(0, cfg.FrontRippleStdDB/2.2)
		a.frontElPhase[i] = rng.Uniform(0, 2*math.Pi)
	}
	return a, nil
}

// frontRippleDB is the device-specific gain distortion toward (az, el).
func (a *Array) frontRippleDB(az, el float64) float64 {
	r := 0.0
	azR, elR := geom.Deg2Rad(az), geom.Deg2Rad(el)
	for i := range a.frontAzAmp {
		k := float64(i + 2)
		r += a.frontAzAmp[i] * math.Sin(k*azR+a.frontAzPhase[i])
		r += a.frontElAmp[i] * math.Sin(k*elR*2+a.frontElPhase[i])
	}
	return r
}

// NumElements returns the element count.
func (a *Array) NumElements() int { return len(a.posY) }

// Config returns the array configuration.
func (a *Array) Config() Config { return a.cfg }

// PhaseStates returns the number of discrete phase-shifter states.
func (a *Array) PhaseStates() int { return 1 << a.cfg.PhaseBits }

// AmpStates is the number of discrete per-element amplitude settings
// (2-bit gain control, matching the chip's "gains and phases in discrete
// steps per antenna element").
const AmpStates = 4

// Weights holds per-element excitation: a quantized phase code, an on/off
// mask and an optional quantized amplitude code per element. The zero
// value disables all elements.
type Weights struct {
	// Phase[k] is the phase-shifter code of element k, in
	// [0, PhaseStates). Interpreted as code * 2π / PhaseStates.
	Phase []uint8
	// On[k] enables element k.
	On []bool
	// Amp[k] is the 2-bit amplitude code of element k; code c drives the
	// element at (c+1)/AmpStates of full amplitude. A nil Amp drives all
	// elements at full amplitude.
	Amp []uint8
}

// NewWeights returns all-on weights with zero phase for an n-element array.
func NewWeights(n int) Weights {
	w := Weights{Phase: make([]uint8, n), On: make([]bool, n)}
	for i := range w.On {
		w.On[i] = true
	}
	return w
}

// ActiveElements returns the number of enabled elements.
func (w Weights) ActiveElements() int {
	n := 0
	for _, on := range w.On {
		if on {
			n++
		}
	}
	return n
}

// Clone returns a deep copy of the weights.
func (w Weights) Clone() Weights {
	c := Weights{
		Phase: append([]uint8(nil), w.Phase...),
		On:    append([]bool(nil), w.On...),
	}
	if w.Amp != nil {
		c.Amp = append([]uint8(nil), w.Amp...)
	}
	return c
}

// Gain returns the realized far-field gain of the array driven with w
// toward (az, el), in dB relative to a single ideal element. It includes
// the element envelope, quantized phases, per-element hardware errors and
// the chassis blockage mask. Directions the chassis fully shadows can go
// strongly negative. It is Steering.Gain through a one-shot Steering.
func (a *Array) Gain(w Weights, az, el float64) float64 {
	var s Steering
	s.point(a, az, el)
	return s.Gain(w)
}

// Steering holds the terms of Gain that depend only on the direction: the
// geometric phase slopes, the element envelope, the chassis mask and the
// front ripple. A reusable Steering (NewSteering) also caches the phasor
// e^{iθ} of every (element, phase code) pair it has evaluated, since θ
// depends only on the direction, the element and its phase code: a sector
// sweep toward one direction then computes each of the 32×4 phasors once
// instead of once per sector. Gain through a Steering runs the same
// floating-point operations in the same order as Array.Gain, so the two
// agree bit for bit. A Steering is not safe for concurrent use.
type Steering struct {
	a      *Array
	az, el float64
	// ky and kz are the phase advances per wavelength of position offset
	// along y and z.
	ky, kz                       float64
	envelopeDB, maskDB, rippleDB float64
	// phasor[k*PhaseStates()+code] is the cached phasor of element k at
	// phase code, valid where filled is set. Both are nil in the one-shot
	// Steering of Array.Gain, which computes every phasor afresh.
	phasor []complex128
	filled []bool
}

// NewSteering returns a reusable Steering of a pointed at boresight.
func (a *Array) NewSteering() *Steering {
	n := a.NumElements() * a.PhaseStates()
	s := &Steering{phasor: make([]complex128, n), filled: make([]bool, n)}
	s.point(a, 0, 0)
	return s
}

// Point aims s at (az, el). Pointing at the direction s already holds
// keeps the cached phasors; any other direction drops them.
func (s *Steering) Point(az, el float64) {
	if math.Float64bits(az) == math.Float64bits(s.az) && math.Float64bits(el) == math.Float64bits(s.el) {
		return
	}
	s.point(s.a, az, el)
	clear(s.filled)
}

// point evaluates the direction-only terms of a toward (az, el).
func (s *Steering) point(a *Array, az, el float64) {
	dir := geom.FromAngles(az, el)
	s.a, s.az, s.el = a, az, el
	s.ky = 2 * math.Pi * dir.Y
	s.kz = 2 * math.Pi * dir.Z
	s.envelopeDB = a.elementEnvelopeDB(az, el)
	s.maskDB = a.chassisMaskDB(az, el)
	s.rippleDB = a.frontRippleDB(az, el)
}

// Gain returns the array's gain driven with w toward the pointed direction:
// Array.Gain(w, az, el) for the (az, el) of the last Point.
func (s *Steering) Gain(w Weights) float64 {
	a := s.a
	n := a.NumElements()
	if len(w.Phase) != n || len(w.On) != n {
		return math.Inf(-1)
	}
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
		sum += complex(amp, 0) * s.elementPhasor(k, w.Phase[k])
	}
	if active == 0 {
		return math.Inf(-1)
	}
	// Normalize so that a perfectly combined full array has gain
	// 10·log10(N) above one element (power normalized per element).
	p := real(sum)*real(sum) + imag(sum)*imag(sum)
	gainDB := stats.DB(p / float64(active))
	gainDB += s.envelopeDB
	gainDB += s.maskDB
	gainDB += s.rippleDB
	return gainDB
}

// elementPhasor returns e^{iθ} for element k driven with phase code, θ
// being its geometric phase toward the pointed direction plus the code's
// phase and the element's static error. The sine and cosine are exactly
// those cmplx.Exp(complex(0, θ)) returns.
func (s *Steering) elementPhasor(k int, code uint8) complex128 {
	a := s.a
	states := a.PhaseStates()
	i := k*states + int(code)
	cached := s.filled != nil && int(code) < states
	if cached && s.filled[i] {
		return s.phasor[i]
	}
	phase := float64(code)/float64(states)*2*math.Pi + a.phaseErr[k]
	geo := s.ky*a.posY[k] + s.kz*a.posZ[k]
	sin, cos := math.Sincos(geo + phase)
	ph := complex(cos, sin)
	if cached {
		s.phasor[i], s.filled[i] = ph, true
	}
	return ph
}

// elementEnvelopeDB is the per-element patch envelope: maximum at
// boresight, rolling off toward ±90° and beyond.
func (a *Array) elementEnvelopeDB(az, el float64) float64 {
	// Angle from boresight (the +x axis).
	c := geom.FromAngles(az, el).X
	if c <= 0.02 {
		c = 0.02 // behind the array plane: deep but finite rolloff
	}
	return stats.DB(math.Pow(c, a.cfg.ElementExponent))
}

// chassisMaskDB models the shielding chip/chassis behind the antenna: for
// |az| > 120° gain drops sharply and becomes distorted (device-specific
// ripple), matching the paper's observation of distorted patterns there.
func (a *Array) chassisMaskDB(az, el float64) float64 {
	az = geom.WrapAz(az)
	abs := math.Abs(az)
	if abs <= 120 {
		return 0
	}
	depth := (abs - 120) / 60 // 0 at 120°, 1 at 180°
	att := -22 * depth
	ripple := 0.0
	for i, amp := range a.rippleAmp {
		ripple += amp * math.Sin(float64(i+1)*geom.Deg2Rad(az)*2+a.ripplePhase[i])
	}
	return att + ripple*depth + math.Abs(el)*-0.05*depth
}

// SteeringWeights returns quantized weights that steer the full aperture
// toward (az, el): each element's phase shifter is set to the nearest code
// compensating the geometric phase.
func (a *Array) SteeringWeights(az, el float64) Weights {
	w := NewWeights(a.NumElements())
	dir := geom.FromAngles(az, el)
	ky := 2 * math.Pi * dir.Y
	kz := 2 * math.Pi * dir.Z
	states := a.PhaseStates()
	for k := range w.Phase {
		geo := ky*a.posY[k] + kz*a.posZ[k]
		w.Phase[k] = quantizePhase(-geo, states)
	}
	return w
}

// RandomWeights returns weights with uniformly random phase codes on all
// elements — the pseudo-random probing beams of prior compressive-tracking
// work, which the paper found to break the link budget on this hardware.
func (a *Array) RandomWeights(rng *stats.RNG) Weights {
	w := NewWeights(a.NumElements())
	for k := range w.Phase {
		w.Phase[k] = uint8(rng.Intn(a.PhaseStates()))
	}
	return w
}

// quantizePhase maps a phase in radians to the nearest of `states` codes.
func quantizePhase(phase float64, states int) uint8 {
	step := 2 * math.Pi / float64(states)
	p := math.Mod(phase, 2*math.Pi)
	if p < 0 {
		p += 2 * math.Pi
	}
	code := int(math.Round(p/step)) % states
	return uint8(code)
}
