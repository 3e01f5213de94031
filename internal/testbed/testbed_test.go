package testbed

import (
	"context"
	"math"
	"testing"

	"talon/internal/channel"
	"talon/internal/core"
	"talon/internal/dot11ad"
	"talon/internal/geom"
	"talon/internal/sector"
	"talon/internal/stats"
	"talon/internal/wil"
)

func newRig(t testing.TB, env *channel.Environment, dist float64) (*wil.Link, *wil.Device, *wil.Device, *RotationHead) {
	t.Helper()
	dut, err := wil.NewDevice(wil.Config{Name: "dut", MAC: dot11ad.MACAddr{2, 0, 0, 0, 0, 1}, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	probe, err := wil.NewDevice(wil.Config{Name: "probe", MAC: dot11ad.MACAddr{2, 0, 0, 0, 0, 2}, Seed: 12})
	if err != nil {
		t.Fatal(err)
	}
	if err := dut.Jailbreak(); err != nil {
		t.Fatal(err)
	}
	if err := probe.Jailbreak(); err != nil {
		t.Fatal(err)
	}
	dutPose, probePose := FacingPoses(dist, 1.2)
	dut.SetPose(dutPose)
	probe.SetPose(probePose)
	link := wil.NewLink(env, dut, probe)
	head := NewRotationHead(stats.NewRNG(99))
	return link, dut, probe, head
}

func TestRotationHead(t *testing.T) {
	h := NewRotationHead(stats.NewRNG(1))
	if got := h.SetAzimuth(10.027); math.Abs(got-10.05) > 1e-9 {
		t.Fatalf("microstep quantization: %v", got)
	}
	tilt := h.SetTilt(10)
	if math.Abs(tilt-10) > 4 {
		t.Fatalf("tilt error too large: %v", tilt)
	}
	if tilt == 10.0 {
		t.Fatal("manual tilt suspiciously exact")
	}
	// Zero-error head.
	h2 := &RotationHead{AzStep: 0.05}
	if got := h2.SetTilt(5); got != 5 {
		t.Fatalf("error-free tilt = %v", got)
	}
}

func TestHeadPointAt(t *testing.T) {
	_, dut, probe, head := newRig(t, channel.AnechoicChamber(), 3)
	head.TiltErrStd = 0 // exact geometry for this test
	realAz, realEl := head.PointAt(dut, 25, 10)
	if math.Abs(realAz-25) > 0.1 || math.Abs(realEl-10) > 1e-9 {
		t.Fatalf("realized (%v, %v)", realAz, realEl)
	}
	// The probe must now appear at the commanded local direction.
	dir := probe.Pose().Pos.Sub(dut.Pose().Pos).Normalize()
	az, el := dut.Pose().ToLocal(dir)
	if math.Abs(az-realAz) > 0.1 || math.Abs(el-realEl) > 0.1 {
		t.Fatalf("probe at local (%v, %v), commanded (%v, %v)", az, el, realAz, realEl)
	}
}

func coarseGrid(t testing.TB) *geom.Grid {
	t.Helper()
	g, err := geom.UniformGrid(-60, 60, 6, 0, 12, 6)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestCampaignMeasuresPatterns(t *testing.T) {
	link, dut, probe, _ := newRig(t, channel.AnechoicChamber(), 3)
	c := NewChamberCampaign(link, dut, probe, 5)
	c.Repeats = 2
	set, err := c.MeasureAllPatterns(context.Background(), coarseGrid(t))
	if err != nil {
		t.Fatal(err)
	}
	if set.Len() != 35 {
		t.Fatalf("pattern count = %d, want 35", set.Len())
	}
	// Post-processing must leave complete patterns.
	for _, id := range set.IDs() {
		if miss := set.Get(id).Missing(); miss != 0 {
			t.Errorf("sector %v: %d missing samples after processing", id, miss)
		}
	}
	// The boresight sector's measured peak should be near 0° azimuth.
	az, _, gain := set.Get(63).Peak()
	if math.Abs(az) > 12 {
		t.Errorf("sector 63 measured peak at %v°", az)
	}
	if gain < 5 {
		t.Errorf("sector 63 measured peak gain %v dB", gain)
	}
	// Weak sectors measure consistently weaker than the boresight one.
	if w := set.Get(62).MaxGain(); w > gain {
		t.Errorf("scrambled sector 62 (%v dB) outshines 63 (%v dB)", w, gain)
	}
}

func TestScanConfigs(t *testing.T) {
	lab := LabScan()
	if lab.AzStep != 2.25 || len(lab.Elevations) != 16 {
		t.Fatalf("lab scan: %+v", lab)
	}
	conf := ConferenceScan()
	if conf.AzStep != 1.3 || len(conf.Elevations) != 1 {
		t.Fatalf("conference scan: %+v", conf)
	}
}

func TestRunScanTraces(t *testing.T) {
	link, dut, probe, head := newRig(t, channel.ConferenceRoom(), 6)
	cfg := ScanConfig{AzMin: -30, AzMax: 30, AzStep: 15, Elevations: []float64{0}, SweepsPerPosition: 2}
	traces, err := RunScan(context.Background(), link, dut, probe, head, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(traces) != 5 {
		t.Fatalf("traces = %d, want 5", len(traces))
	}
	for _, tr := range traces {
		if len(tr.Sweeps) != 2 {
			t.Fatalf("sweeps per trace = %d", len(tr.Sweeps))
		}
		if len(tr.TrueSNR) != 34 {
			t.Fatalf("oracle covers %d sectors", len(tr.TrueSNR))
		}
		// Ground truth equals the commanded azimuth (LOS dominates and
		// the head is exact in azimuth up to microstepping).
		if math.Abs(tr.TrueAz-tr.CommandedAz) > 0.5 {
			t.Fatalf("truth az %v vs commanded %v", tr.TrueAz, tr.CommandedAz)
		}
	}
}

func TestRunScanValidation(t *testing.T) {
	link, dut, probe, head := newRig(t, channel.AnechoicChamber(), 3)
	if _, err := RunScan(context.Background(), link, dut, probe, head, ScanConfig{AzStep: 0, Elevations: []float64{0}}); err == nil {
		t.Error("zero step accepted")
	}
	if _, err := RunScan(context.Background(), link, dut, probe, head, ScanConfig{AzMin: 0, AzMax: 1, AzStep: 1}); err == nil {
		t.Error("missing elevations accepted")
	}
}

// TestEndToEndCompressiveSelection is the pipeline integration test:
// measure patterns in the chamber, then run CSS against fresh sweeps in
// the same chamber and verify angle estimates and sector choices.
func TestEndToEndCompressiveSelection(t *testing.T) {
	link, dut, probe, head := newRig(t, channel.AnechoicChamber(), 3)
	campaign := NewChamberCampaign(link, dut, probe, 5)
	campaign.Repeats = 2
	grid, err := geom.UniformGrid(-60, 60, 3, 0, 12, 4)
	if err != nil {
		t.Fatal(err)
	}
	patterns, err := campaign.MeasureTXPatterns(context.Background(), grid)
	if err != nil {
		t.Fatal(err)
	}
	est, err := core.NewEstimator(patterns, core.Options{})
	if err != nil {
		t.Fatal(err)
	}

	rng := stats.NewRNG(77)
	var azErrs, losses []float64
	lost := 0
	const subsets = 4
	for _, cmdAz := range []float64{-45, -20, 0, 20, 45} {
		head.PointAt(dut, cmdAz, 0)
		truthAz, _, _ := dominantAoD(link, dut, probe)
		gt := link.GroundTruth(dut, probe) // sweeps below leave it valid
		best := math.Inf(-1)
		for _, id := range sector.TalonTX() {
			if s := gt.SNR(id); s > best {
				best = s
			}
		}
		for s := 0; s < subsets; s++ {
			probeSet, err := core.RandomProbes(rng, sector.TalonTX(), 14)
			if err != nil {
				t.Fatal(err)
			}
			meas, err := link.RunTXSS(dut, probe, dot11ad.SubSweepSchedule(probeSet))
			if err != nil {
				t.Fatal(err)
			}
			probes := core.ProbesFromMeasurements(probeSet.IDs(), meas)
			sel, err := est.SelectSector(context.Background(), probes)
			if err != nil {
				lost++
				continue
			}
			if !sel.Fallback {
				azErrs = append(azErrs, math.Abs(sel.AoA.Az-truthAz))
			}
			losses = append(losses, best-gt.SNR(sel.Sector))
		}
	}
	if lost > 2 {
		t.Fatalf("selection failed in %d/%d draws", lost, 5*subsets)
	}
	if med := stats.Median(azErrs); med > 6 {
		t.Fatalf("median azimuth error %v°", med)
	}
	// Individual draws may hit an unlucky subset (noisy coarse-grid test
	// patterns), but the typical selection must be near-optimal.
	if med := stats.Median(losses); med > 4 {
		t.Fatalf("median SNR loss %v dB", med)
	}
	bad := 0
	for _, l := range losses {
		if l > 8 {
			bad++
		}
	}
	if bad > len(losses)/4 {
		t.Fatalf("%d/%d selections lost more than 8 dB", bad, len(losses))
	}
}

func dominantAoD(link *wil.Link, dut, probe *wil.Device) (float64, float64, bool) {
	return dominantAoDPose(link, dut.Pose(), probe.Pose())
}

func dominantAoDPose(link *wil.Link, dutPose, probePose channel.Pose) (float64, float64, bool) {
	dir := probePose.Pos.Sub(dutPose.Pos).Normalize()
	az, el := dutPose.ToLocal(dir)
	return az, el, true
}
