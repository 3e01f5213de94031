package core

import (
	"context"
	"math"
	"testing"

	"talon/internal/radio"
	"talon/internal/sector"
	"talon/internal/stats"
)

// fuzzProbeBytes is the encoded size of one fuzzed probe: sector ID,
// flags, SNR and RSSI.
const fuzzProbeBytes = 4

// decodeFuzzProbes turns fuzz input into a probe vector of at most 96
// probes, so the 64-component cap is reachable. Per probe: byte 0 is the
// sector ID taken as is (unknown and duplicate IDs included); flags bit
// 0 marks the probe reported, bits 1–2 and 3–4 replace the SNR and the
// RSSI with NaN, +Inf or −Inf; bytes 2 and 3 are the SNR and the RSSI
// offset from −70 dBm, in signed quarter dB.
func decodeFuzzProbes(data []byte) []Probe {
	n := min(len(data)/fuzzProbeBytes, 96)
	probes := make([]Probe, n)
	for i := range probes {
		b := data[i*fuzzProbeBytes : (i+1)*fuzzProbeBytes]
		flags := b[1]
		probes[i] = Probe{
			Sector: sector.ID(b[0]),
			OK:     flags&1 != 0,
			Meas: radio.Measurement{
				SNR:  fuzzReading(flags>>1, float64(int8(b[2]))/4),
				RSSI: fuzzReading(flags>>3, -70+float64(int8(b[3]))/4),
			},
		}
	}
	return probes
}

// fuzzReading returns v, or the non-finite value the two low bits of sel
// pick.
func fuzzReading(sel byte, v float64) float64 {
	switch sel & 3 {
	case 1:
		return math.NaN()
	case 2:
		return math.Inf(1)
	case 3:
		return math.Inf(-1)
	}
	return v
}

// encodeFuzzProbes is the inverse of decodeFuzzProbes for finite
// readings on the quarter-dB lattice; it builds the seed corpus.
func encodeFuzzProbes(probes []Probe) []byte {
	out := make([]byte, 0, len(probes)*fuzzProbeBytes)
	for _, p := range probes {
		var flags byte
		if p.OK {
			flags = 1
		}
		snr := int8(max(-128, min(127, math.Round(p.Meas.SNR*4))))
		rssi := int8(max(-128, min(127, math.Round((p.Meas.RSSI+70)*4))))
		out = append(out, byte(p.Sector), flags, byte(snr), byte(rssi))
	}
	return out
}

// FuzzSelectSector drives SelectSector with arbitrary probe vectors:
// NaN and ±Inf readings, duplicate and unknown sector IDs, empty and
// all-missing vectors. The call must not panic, its error class must
// match the serial oracle's, and SelectWithBackup's primary must be
// exactly SelectSector's result.
func FuzzSelectSector(f *testing.F) {
	set, gain := synthSetup(f)
	est, err := NewEstimator(set, Options{})
	if err != nil {
		f.Fatal(err)
	}
	rng := stats.NewRNG(83)
	for _, m := range []int{3, 8, 14, 32} {
		ps, err := RandomProbes(rng, sector.TalonTX(), m)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(encodeFuzzProbes(observe(f, gain, ps.IDs(), -60+120*rng.Float64(), 10, radio.DefaultMeasurementModel(), rng)))
	}
	clean := encodeFuzzProbes(observe(f, gain, sector.TalonTX()[:14], 20, 6, quietModel(), rng))
	nan := append([]byte(nil), clean...)
	nan[4*3+1] |= 1 << 1 // one reported probe reads NaN SNR
	f.Add(clean)
	f.Add(nan)
	f.Add([]byte{})
	f.Add([]byte{5, 0, 10, 0, 6, 0, 4, 0, 7, 0, 2, 0}) // all missing
	f.Add([]byte{5, 1, 10, 0, 5, 1, 40, 0, 200, 1, 12, 0, 7, 1, 0, 0})

	ctx := context.Background()
	f.Fuzz(func(t *testing.T, data []byte) {
		probes := decodeFuzzProbes(data)
		sel, selErr := est.SelectSector(ctx, probes)
		_, refErr := est.selectSectorSerial(probes)
		if !sameErrClass(selErr, refErr) {
			t.Fatalf("SelectSector error %v, serial oracle error %v", selErr, refErr)
		}
		backup, backupErr := est.SelectWithBackup(ctx, probes, 18)
		if !sameErrClass(backupErr, selErr) {
			t.Fatalf("SelectWithBackup error %v, SelectSector error %v", backupErr, selErr)
		}
		if selErr == nil && !identicalSelection(backup.Primary, sel) {
			t.Fatalf("SelectWithBackup primary %+v, SelectSector %+v", backup.Primary, sel)
		}
	})
}
