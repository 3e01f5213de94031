package radio

import (
	"math"
	"testing"

	"talon/internal/antenna"
	"talon/internal/channel"
	"talon/internal/geom"
	"talon/internal/stats"
)

// gainFunc is an antenna's directive gain (dB) toward a local direction.
type gainFunc func(az, el float64) float64

func isotropic(az, el float64) float64 { return 0 }

// trueSNR is the reference ground truth: the rays resolved afresh, each
// endpoint's gain function evaluated along them, then PathSNR.
func trueSNR(env *channel.Environment, txPose, rxPose channel.Pose, txGain, rxGain gainFunc, b Budget) float64 {
	paths := ResolvePaths(nil, env, txPose, rxPose)
	for i := range paths {
		p := &paths[i]
		p.TXGainDB = txGain(p.TXAz, p.TXEl)
		p.RXGainDB = rxGain(p.RXAz, p.RXEl)
	}
	return PathSNR(paths, b)
}

func TestTrueSNRFreeSpace(t *testing.T) {
	env := channel.AnechoicChamber()
	b := DefaultBudget()
	tx := channel.Pose{}
	rxPose := channel.Pose{Pos: geom.Point{X: 3}, Yaw: 180}
	snr := trueSNR(env, tx, rxPose, isotropic, isotropic, b)
	want := b.TxPowerDBm - channel.FSPL(3) - b.NoiseFloorDBm
	if math.Abs(snr-want) > 1e-9 {
		t.Fatalf("SNR = %v, want %v", snr, want)
	}
}

func TestTrueSNRGainAdds(t *testing.T) {
	env := channel.AnechoicChamber()
	b := DefaultBudget()
	tx := channel.Pose{}
	rx := channel.Pose{Yaw: 180}
	rx.Pos.X = 3
	base := trueSNR(env, tx, rx, isotropic, isotropic, b)
	withGain := trueSNR(env, tx, rx,
		func(az, el float64) float64 { return 10 }, isotropic, b)
	if math.Abs(withGain-base-10) > 1e-9 {
		t.Fatalf("10 dB TX gain changed SNR by %v", withGain-base)
	}
}

func TestTrueSNRUsesLocalAngles(t *testing.T) {
	env := channel.AnechoicChamber()
	b := DefaultBudget()
	tx := channel.Pose{}
	rx := channel.Pose{Yaw: 180}
	rx.Pos.X = 3
	// A TX gain pattern that only radiates at boresight: with the link
	// along boresight it contributes; when the device yaws away, the
	// local angle moves off boresight and the link collapses.
	pencil := func(az, el float64) float64 {
		if math.Abs(az) < 5 && math.Abs(el) < 5 {
			return 15
		}
		return -40
	}
	onAxis := trueSNR(env, tx, rx, pencil, isotropic, b)
	txYawed := channel.Pose{Yaw: 60}
	offAxis := trueSNR(env, txYawed, rx, pencil, isotropic, b)
	if onAxis-offAxis < 50 {
		t.Fatalf("yaw did not move pattern: on %v off %v", onAxis, offAxis)
	}
}

func TestTrueSNRMultipathAddsPower(t *testing.T) {
	b := DefaultBudget()
	tx := channel.Pose{}
	rx := channel.Pose{Yaw: 180}
	rx.Pos.X = 4
	losOnly := trueSNR(channel.AnechoicChamber(), tx, rx, isotropic, isotropic, b)
	env := &channel.Environment{
		Name:       "mirror",
		Reflectors: []channel.Reflector{channel.NewWallY("w", 1, -10, 10, -10, 10, 0)},
	}
	withRefl := trueSNR(env, tx, rx, isotropic, isotropic, b)
	if withRefl <= losOnly {
		t.Fatalf("reflection removed power: %v vs %v", withRefl, losOnly)
	}
}

func TestTrueSNRNoPaths(t *testing.T) {
	env := &channel.Environment{Name: "void", LOSBlocked: true}
	b := DefaultBudget()
	rx := channel.Pose{}
	rx.Pos.X = 3
	if snr := trueSNR(env, channel.Pose{}, rx, isotropic, isotropic, b); !math.IsInf(snr, -1) {
		t.Fatalf("SNR without paths = %v", snr)
	}
}

func TestDominantDepartureAngles(t *testing.T) {
	env := channel.ConferenceRoom()
	rx := channel.Pose{Pos: geom.Point{X: 6, Y: 0, Z: 1.2}, Yaw: 180}
	for _, c := range []struct{ yaw, wantAz float64 }{{0, 0}, {30, -30}} {
		tx := channel.Pose{Pos: geom.Point{X: 0, Y: 0, Z: 1.2}, Yaw: c.yaw}
		az, el, ok := DominantDepartureAngles(env, tx, rx)
		if !ok {
			t.Fatal("no dominant ray")
		}
		// LOS dominates and leaves along +X, so the departure sits at
		// -yaw in the transmitter's frame.
		if math.Abs(az-c.wantAz) > 1e-6 || math.Abs(el) > 1e-6 {
			t.Fatalf("yaw %v: dominant AoD = (%v, %v), want (%v, 0)", c.yaw, az, el, c.wantAz)
		}
	}
}

func TestCalibratedLinkBudgetWindow(t *testing.T) {
	// End-to-end sanity: a good Talon sector pair at 3 m lands above the
	// firmware's 12 dB SNR ceiling, and remains decodable at 6 m.
	rng := stats.NewRNG(1)
	arr, err := antenna.New(antenna.TalonConfig(), rng)
	if err != nil {
		t.Fatal(err)
	}
	cb := antenna.Talon(arr)
	w63, _ := cb.Weights(63)
	wRX, _ := cb.Weights(0)
	b := DefaultBudget()
	tx := channel.Pose{}
	rx := channel.Pose{Yaw: 180}
	rx.Pos.X = 3
	var g Geometry
	g.Resolve(channel.AnechoicChamber(), tx, rx, arr, arr, wRX)
	snr3 := g.SNR(w63, b)
	if snr3 < 10 || snr3 > 24 {
		t.Fatalf("3 m boresight SNR = %v, want at or above the 12 dB reporting ceiling", snr3)
	}
	rx.Pos.X = 6
	g.Resolve(channel.AnechoicChamber(), tx, rx, arr, arr, wRX)
	snr6 := g.SNR(w63, b)
	if snr6 < 2 {
		t.Fatalf("6 m boresight SNR = %v, too weak", snr6)
	}
}

// TestGeometryMatchesTrueSNR checks Geometry against the reference
// trueSNR in the multipath conference room, bit for bit, for every sector
// of a Talon codebook, with the quasi-omni and the isotropic (nil)
// receiver, and across re-resolutions that move the transmitter.
func TestGeometryMatchesTrueSNR(t *testing.T) {
	arr, err := antenna.New(antenna.TalonConfig(), stats.NewRNG(5))
	if err != nil {
		t.Fatal(err)
	}
	cb := antenna.Talon(arr)
	wRX, _ := cb.Weights(0)
	env := channel.ConferenceRoom()
	b := DefaultBudget()
	rx := channel.Pose{Pos: geom.Point{X: 6, Z: 1.2}, Yaw: 180}
	var g Geometry
	for _, yaw := range []float64{0, 23, -57} {
		tx := channel.Pose{Pos: geom.Point{Z: 1.2}, Yaw: yaw}
		for _, omni := range []bool{true, false} {
			rxArr, rxGain := arr, gainFunc(func(az, el float64) float64 { return arr.Gain(wRX, az, el) })
			if !omni {
				rxArr, rxGain = nil, isotropic
			}
			g.Resolve(env, tx, rx, arr, rxArr, wRX)
			for _, id := range cb.IDs() {
				w, _ := cb.Weights(id)
				got := g.SNR(w, b)
				want := trueSNR(env, tx, rx, func(az, el float64) float64 { return arr.Gain(w, az, el) }, rxGain, b)
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("yaw %v omni %v sector %v: Geometry %v, trueSNR %v", yaw, omni, id, got, want)
				}
			}
		}
	}
}

// TestGeometryResolveReportsUnchanged checks when Resolve reports its
// inputs unchanged: only for bit-identical traced paths, arrays and
// receive weights. An edit of the receive weights in place, a pose, an
// environment field or an array swap must each re-resolve, and the SNR
// must always equal a fresh geometry's.
func TestGeometryResolveReportsUnchanged(t *testing.T) {
	arrA, err := antenna.New(antenna.TalonConfig(), stats.NewRNG(5))
	if err != nil {
		t.Fatal(err)
	}
	arrB, err := antenna.New(antenna.TalonConfig(), stats.NewRNG(6))
	if err != nil {
		t.Fatal(err)
	}
	w, _ := antenna.Talon(arrA).Weights(12)
	rxW, _ := antenna.Talon(arrB).Weights(0)
	rxW = rxW.Clone()
	env := channel.ConferenceRoom()
	tx := channel.Pose{Pos: geom.Point{Z: 1.2}, Yaw: 15}
	rx := channel.Pose{Pos: geom.Point{X: 6, Z: 1.2}, Yaw: 180}
	b := DefaultBudget()

	var g Geometry
	steps := []struct {
		name   string
		change func()
		same   bool
	}{
		{"first resolve", func() {}, false},
		{"repeat", func() {}, true},
		{"rx weights edited in place", func() { rxW.Phase[3] ^= 1 }, false},
		{"repeat after the edit", func() {}, true},
		{"tx pose", func() { tx.Yaw += 0.5 }, false},
		{"LOS extra loss", func() { env.LOSExtraLossDB = 2 }, false},
		{"reflector edited in place", func() { env.Reflectors[0].LossDB++ }, false},
		{"arrays swapped", func() { arrA, arrB = arrB, arrA }, false},
		{"repeat after the swap", func() {}, true},
	}
	for _, st := range steps {
		st.change()
		if same := g.Resolve(env, tx, rx, arrA, arrB, rxW); same != st.same {
			t.Fatalf("%s: Resolve reported unchanged=%v, want %v", st.name, same, st.same)
		}
		var fresh Geometry
		fresh.Resolve(env, tx, rx, arrA, arrB, rxW)
		if got, want := g.SNR(w, b), fresh.SNR(w, b); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("%s: SNR %v, fresh geometry %v", st.name, got, want)
		}
	}
}

func TestObserveQuantizationAndClamp(t *testing.T) {
	m := DefaultMeasurementModel()
	// Suppress stochastics to test the deterministic pipeline.
	m.SNRNoiseStdDB, m.RSSINoiseStdDB, m.LowSNRNoiseBoost = 0, 0, 0
	m.OutlierProb, m.BaseMissProb = 0, 0
	m.DecodeThresholdDB = -100 // always decodable for this test
	rng := stats.NewRNG(1)
	meas, ok := m.Observe(8.13, rng)
	if !ok {
		t.Fatal("strong frame missed")
	}
	if meas.SNR != 8.25 {
		t.Fatalf("SNR = %v, want quarter-dB 8.25", meas.SNR)
	}
	if got := math.Mod(meas.RSSI, RSSIQuantumDB); got != 0 {
		t.Fatalf("RSSI not on 1 dB grid: %v", meas.RSSI)
	}
	// Clamping.
	meas, ok = m.Observe(25, rng)
	if !ok || meas.SNR != SNRMaxDB {
		t.Fatalf("high SNR clamp: %+v ok=%v", meas, ok)
	}
	meas, ok = m.Observe(-6.7, rng)
	if !ok || meas.SNR < SNRMinDB {
		t.Fatalf("low SNR clamp: %+v ok=%v", meas, ok)
	}
}

func TestObserveRSSIScale(t *testing.T) {
	m := DefaultMeasurementModel()
	m.SNRNoiseStdDB, m.RSSINoiseStdDB, m.LowSNRNoiseBoost = 0, 0, 0
	m.OutlierProb, m.BaseMissProb = 0, 0
	rng := stats.NewRNG(1)
	meas, _ := m.Observe(10, rng)
	if want := 10 + m.NoiseFloorDBm; math.Abs(meas.RSSI-want) > 0.5 {
		t.Fatalf("RSSI = %v, want about %v", meas.RSSI, want)
	}
}

func TestDecodeProbMonotone(t *testing.T) {
	m := DefaultMeasurementModel()
	prev := -1.0
	for snr := -15.0; snr <= 12; snr += 0.5 {
		p := m.DecodeProb(snr)
		if p < prev {
			t.Fatalf("DecodeProb not monotone at %v", snr)
		}
		if p < 0 || p > 1 {
			t.Fatalf("DecodeProb out of range: %v", p)
		}
		prev = p
	}
	if p := m.DecodeProb(math.Inf(-1)); p != 0 {
		t.Fatalf("DecodeProb(-Inf) = %v", p)
	}
	if p := m.DecodeProb(12); p < 0.9 {
		t.Fatalf("strong frames decode with p = %v", p)
	}
}

func TestObserveMissesWeakFrames(t *testing.T) {
	m := DefaultMeasurementModel()
	rng := stats.NewRNG(2)
	missedWeak, missedStrong := 0, 0
	const n = 2000
	for i := 0; i < n; i++ {
		if _, ok := m.Observe(-9, rng); !ok {
			missedWeak++
		}
		if _, ok := m.Observe(11, rng); !ok {
			missedStrong++
		}
	}
	if missedWeak < n/2 {
		t.Fatalf("weak frames missed only %d/%d", missedWeak, n)
	}
	// Strong frames still get silently dropped occasionally.
	if missedStrong == 0 {
		t.Fatal("no silent drops at high SNR")
	}
	if missedStrong > n/5 {
		t.Fatalf("too many drops at high SNR: %d/%d", missedStrong, n)
	}
}

func TestObserveLowSNRNoisier(t *testing.T) {
	m := DefaultMeasurementModel()
	m.OutlierProb = 0
	rng := stats.NewRNG(3)
	spread := func(trueSNR float64) float64 {
		var vals []float64
		for i := 0; i < 3000; i++ {
			if meas, ok := m.Observe(trueSNR, rng); ok {
				vals = append(vals, meas.SNR)
			}
		}
		return stats.StdDev(vals)
	}
	lo, hi := spread(-2), spread(10)
	if lo <= hi {
		t.Fatalf("low-SNR readings not noisier: std %v vs %v", lo, hi)
	}
}

func TestSNRAndRSSIOutliersIndependent(t *testing.T) {
	m := DefaultMeasurementModel()
	m.SNRNoiseStdDB, m.RSSINoiseStdDB, m.LowSNRNoiseBoost = 0.01, 0.01, 0
	m.OutlierProb = 0.2
	m.BaseMissProb = 0
	rng := stats.NewRNG(4)
	both, either := 0, 0
	for i := 0; i < 5000; i++ {
		meas, ok := m.Observe(5, rng)
		if !ok {
			continue
		}
		snrOut := math.Abs(meas.SNR-5) > 2
		rssiOut := math.Abs(meas.RSSI-(5+m.NoiseFloorDBm)) > 2
		if snrOut || rssiOut {
			either++
		}
		if snrOut && rssiOut {
			both++
		}
	}
	if either == 0 {
		t.Fatal("no outliers generated")
	}
	// Independent draws: joint outliers must be much rarer than single
	// ones (the paper: "fluctuations are not observable in both values
	// at the same time").
	if float64(both) > 0.3*float64(either) {
		t.Fatalf("outliers too correlated: both=%d either=%d", both, either)
	}
}

// TestObserveTermsMatchesObserve checks that precomputed terms give the
// same reports as Observe, draw for draw: two RNGs from one seed, one
// driven through Observe and one through Terms and ObserveTerms, across
// the decode threshold, the reporting window and a -Inf true SNR.
func TestObserveTermsMatchesObserve(t *testing.T) {
	m := DefaultMeasurementModel()
	a, b := stats.NewRNG(11), stats.NewRNG(11)
	snrs := []float64{math.Inf(-1)}
	for s := -14.0; s <= 20; s += 0.37 {
		snrs = append(snrs, s)
	}
	for rep := 0; rep < 20; rep++ {
		for _, snr := range snrs {
			want, wantOK := m.Observe(snr, a)
			got, ok := m.ObserveTerms(snr, m.Terms(snr), b)
			if ok != wantOK || math.Float64bits(got.SNR) != math.Float64bits(want.SNR) ||
				math.Float64bits(got.RSSI) != math.Float64bits(want.RSSI) {
				t.Fatalf("true SNR %v: ObserveTerms %+v (%v), Observe %+v (%v)", snr, got, ok, want, wantOK)
			}
		}
	}
	if a.Float64() != b.Float64() {
		t.Fatal("the two paths consumed different numbers of draws")
	}
}
