package talon_test

import (
	"context"
	"errors"
	"math"
	"testing"

	"talon"
)

func buildPair(t testing.TB) (*talon.Device, *talon.Device) {
	t.Helper()
	dut, err := talon.NewDevice(talon.DeviceConfig{Name: "dut", Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	peer, err := talon.NewDevice(talon.DeviceConfig{Name: "peer", Seed: 22})
	if err != nil {
		t.Fatal(err)
	}
	if err := dut.Jailbreak(); err != nil {
		t.Fatal(err)
	}
	if err := peer.Jailbreak(); err != nil {
		t.Fatal(err)
	}
	return dut, peer
}

func coarsePatternGrid(t testing.TB) *talon.Grid {
	t.Helper()
	g, err := talon.NewGrid(-80, 80, 4, 0, 24, 8)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestQuickstartFlow(t *testing.T) {
	dut, peer := buildPair(t)
	patterns, err := talon.MeasurePatterns(context.Background(), dut, peer, coarsePatternGrid(t), 2)
	if err != nil {
		t.Fatal(err)
	}
	if patterns.Len() != 35 {
		t.Fatalf("patterns = %d", patterns.Len())
	}

	link := talon.NewLink(talon.ConferenceRoom(), dut, peer)
	dutPose := talon.Pose{}
	dutPose.Pos.Z = 1.2
	peerPose := talon.Pose{Yaw: 180}
	peerPose.Pos.X = 6
	peerPose.Pos.Z = 1.2
	dut.SetPose(dutPose)
	peer.SetPose(peerPose)

	trainer, err := talon.NewTrainer(link, mustEstimator(t, patterns), talon.WithM(14), talon.WithSeed(7))
	if err != nil {
		t.Fatal(err)
	}
	res, err := trainer.Run(context.Background(), dut, peer)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Probed) != 14 {
		t.Fatalf("probed %d sectors", len(res.Probed))
	}
	if res.Backup != nil || res.SLS != nil {
		t.Fatal("plain Run populated Backup or SLS")
	}
	// The choice must be a valid predefined TX sector with a usable link.
	valid := false
	for _, id := range talon.TalonTXSectors() {
		if id == res.Sector {
			valid = true
		}
	}
	if !valid {
		t.Fatalf("selected invalid sector %v", res.Sector)
	}
	if snr := link.GroundTruth(dut, peer).SNR(res.Sector); snr < -2 {
		t.Fatalf("selected sector %v has true SNR %v", res.Sector, snr)
	}
	// The receiver-side override is armed with the selection.
	fbSector, ok := peer.Firmware().FeedbackSector()
	if !ok || fbSector != res.Sector {
		t.Fatalf("feedback override = %v, %v", fbSector, ok)
	}
}

func TestTrainMutual(t *testing.T) {
	dut, peer := buildPair(t)
	patterns, err := talon.MeasurePatterns(context.Background(), dut, peer, coarsePatternGrid(t), 2)
	if err != nil {
		t.Fatal(err)
	}
	link := talon.NewLink(talon.AnechoicChamber(), dut, peer)
	dutPose, peerPose := talon.Pose{}, talon.Pose{Yaw: 180}
	dutPose.Pos.Z, peerPose.Pos.Z = 1.2, 1.2
	peerPose.Pos.X = 3
	dut.SetPose(dutPose)
	peer.SetPose(peerPose)

	trainer, err := talon.NewTrainer(link, mustEstimator(t, patterns), talon.WithM(14), talon.WithSeed(9))
	if err != nil {
		t.Fatal(err)
	}
	res, err := trainer.Run(context.Background(), dut, peer, talon.Mutual())
	if err != nil {
		t.Fatal(err)
	}
	if res.SLS == nil {
		t.Fatal("no SLS result")
	}
	if res.SLS.FramesSent != 28 {
		t.Fatalf("SLS frames = %d, want 2×14", res.SLS.FramesSent)
	}
	// The compressive choice travels inside the protocol feedback.
	if res.SLS.InitiatorTXOK && res.SLS.InitiatorTX != res.Sector {
		t.Fatalf("feedback carried %v, selection was %v", res.SLS.InitiatorTX, res.Sector)
	}
}

// mustEstimator builds the default CSS estimator over patterns.
func mustEstimator(t *testing.T, patterns *talon.PatternSet) *talon.Estimator {
	t.Helper()
	est, err := talon.NewEstimator(patterns, talon.EstimatorOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return est
}

func TestTrainerValidation(t *testing.T) {
	dut, peer := buildPair(t)
	patterns, err := talon.MeasurePatterns(context.Background(), dut, peer, coarsePatternGrid(t), 1)
	if err != nil {
		t.Fatal(err)
	}
	link := talon.NewLink(talon.AnechoicChamber(), dut, peer)
	est := mustEstimator(t, patterns)
	if _, err := talon.NewTrainer(nil, est, talon.WithM(14)); err == nil {
		t.Error("nil link accepted")
	}
	if _, err := talon.NewTrainer(link, nil, talon.WithM(14)); err == nil {
		t.Error("nil estimator accepted")
	}
	if _, err := talon.NewTrainer(link, est, talon.WithM(1)); err == nil {
		t.Error("m=1 accepted")
	}
	if _, err := talon.NewTrainer(link, est, talon.WithM(99)); err == nil {
		t.Error("m=99 accepted")
	}
	tr, err := talon.NewTrainer(link, est, talon.WithM(14), talon.WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.SetM(1); err == nil {
		t.Error("SetM(1) accepted")
	}
	if err := tr.SetM(20); err != nil || tr.M() != 20 {
		t.Errorf("SetM(20): %v, M=%d", err, tr.M())
	}
}

func TestMutualTrainingTimeFacade(t *testing.T) {
	full := talon.MutualTrainingTime(34)
	css := talon.MutualTrainingTime(14)
	if math.Abs(full-0.0012731) > 1e-9 {
		t.Fatalf("full = %v s", full)
	}
	if sp := full / css; sp < 2.25 || sp > 2.35 {
		t.Fatalf("speedup = %v", sp)
	}
}

func TestEnvironmentsDistinct(t *testing.T) {
	if talon.AnechoicChamber().Name == talon.Lab().Name {
		t.Fatal("environment names collide")
	}
	if len(talon.ConferenceRoom().Reflectors) <= len(talon.AnechoicChamber().Reflectors) {
		t.Fatal("conference room has no reflectors")
	}
}

func TestTrainWithBackup(t *testing.T) {
	dut, peer := buildPair(t)
	patterns, err := talon.MeasurePatterns(context.Background(), dut, peer, coarsePatternGrid(t), 2)
	if err != nil {
		t.Fatal(err)
	}
	link := talon.NewLink(talon.ConferenceRoom(), dut, peer)
	dutPose, peerPose := talon.Pose{}, talon.Pose{Yaw: 180}
	dutPose.Pos.Z, peerPose.Pos.Z = 1.2, 1.2
	peerPose.Pos.X = 6
	dut.SetPose(dutPose)
	peer.SetPose(peerPose)
	trainer, err := talon.NewTrainer(link, mustEstimator(t, patterns), talon.WithM(24), talon.WithSeed(19))
	if err != nil {
		t.Fatal(err)
	}
	res, err := trainer.Run(context.Background(), dut, peer, talon.WithBackup(talon.DefaultBackupSeparationDeg))
	if err != nil {
		t.Fatal(err)
	}
	backup := res.Backup
	if res.Sector != backup.Primary.Sector {
		t.Fatal("result and primary disagree")
	}
	if backup.HasBackup && backup.Backup.Sector == backup.Primary.Sector {
		t.Fatal("backup equals primary")
	}
}

func TestMeasurePatternsCancellation(t *testing.T) {
	dut, peer := buildPair(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := talon.MeasurePatterns(ctx, dut, peer, coarsePatternGrid(t), 2); !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
}

func TestTrainCancellation(t *testing.T) {
	dut, peer := buildPair(t)
	patterns, err := talon.MeasurePatterns(context.Background(), dut, peer, coarsePatternGrid(t), 1)
	if err != nil {
		t.Fatal(err)
	}
	link := talon.NewLink(talon.Lab(), dut, peer)
	peerPose := talon.Pose{Yaw: 180}
	peerPose.Pos.X = 3
	peer.SetPose(peerPose)
	trainer, err := talon.NewTrainer(link, mustEstimator(t, patterns), talon.WithM(14), talon.WithSeed(3))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := trainer.Run(ctx, dut, peer); !errors.Is(err, context.Canceled) {
		t.Fatalf("Run: want context.Canceled, got %v", err)
	}
	if _, err := trainer.Run(ctx, dut, peer, talon.Mutual()); !errors.Is(err, context.Canceled) {
		t.Fatalf("Run(Mutual): want context.Canceled, got %v", err)
	}
	if _, err := trainer.Run(ctx, dut, peer, talon.WithBackup(talon.DefaultBackupSeparationDeg)); !errors.Is(err, context.Canceled) {
		t.Fatalf("Run(WithBackup): want context.Canceled, got %v", err)
	}
	// The same trainer still works once the pressure is off.
	if _, err := trainer.Run(context.Background(), dut, peer); err != nil {
		t.Fatalf("post-cancel Run: %v", err)
	}
}

func TestSentinelErrors(t *testing.T) {
	dut, err := talon.NewDevice(talon.DeviceConfig{Name: "stock", Seed: 31})
	if err != nil {
		t.Fatal(err)
	}
	// Stock firmware: the dump must fail with the typed sentinel.
	if _, err := dut.SweepDump(); !errors.Is(err, talon.ErrNotJailbroken) {
		t.Fatalf("stock SweepDump: want ErrNotJailbroken, got %v", err)
	}
	dutB, peer := buildPair(t)
	patterns, err := talon.MeasurePatterns(context.Background(), dutB, peer, coarsePatternGrid(t), 1)
	if err != nil {
		t.Fatal(err)
	}
	link := talon.NewLink(talon.Lab(), dutB, peer)
	if _, err := talon.NewTrainer(link, mustEstimator(t, patterns), talon.WithM(1)); !errors.Is(err, talon.ErrTooFewProbes) {
		t.Fatalf("WithM(1): want ErrTooFewProbes, got %v", err)
	}
	// A sector with two adjacent unmeasured elevation rows leaves grid
	// points Pattern.At cannot fill: the estimator refuses the set.
	id := patterns.IDs()[0]
	holey := patterns.Get(id).Clone()
	for a := 0; a < patterns.Grid().NumAz(); a++ {
		holey.Set(a, 0, math.NaN())
		holey.Set(a, 1, math.NaN())
	}
	if err := patterns.Put(id, holey); err != nil {
		t.Fatal(err)
	}
	if _, err := talon.NewEstimator(patterns, talon.EstimatorOptions{}); !errors.Is(err, talon.ErrPatternHole) {
		t.Fatalf("holey patterns: want ErrPatternHole, got %v", err)
	}
}
