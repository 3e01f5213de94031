package talon_test

import (
	"context"
	"testing"

	"talon"
)

// buildTrainer assembles a jailbroken pair, coarse patterns and a
// trainer in env, mirroring the package example deployment.
func buildTrainer(t *testing.T, env *talon.Environment, opts ...talon.TrainerOption) (*talon.Trainer, *talon.Link, *talon.Device, *talon.Device) {
	t.Helper()
	dut, peer := buildPair(t)
	patterns, err := talon.MeasurePatterns(context.Background(), dut, peer, coarsePatternGrid(t), 2)
	if err != nil {
		t.Fatal(err)
	}
	link := talon.NewLink(env, dut, peer)
	dutPose, peerPose := talon.Pose{}, talon.Pose{Yaw: 180}
	dutPose.Pos.Z, peerPose.Pos.Z = 1.2, 1.2
	peerPose.Pos.X = 3
	dut.SetPose(dutPose)
	peer.SetPose(peerPose)
	trainer, err := talon.NewTrainer(link, mustEstimator(t, patterns), opts...)
	if err != nil {
		t.Fatal(err)
	}
	return trainer, link, dut, peer
}

// TestRunTracerOrdering drives a mutual Run with a recording tracer and
// checks that the stage spans arrive well-formed and in pipeline order.
func TestRunTracerOrdering(t *testing.T) {
	trainer, _, dut, peer := buildTrainer(t, talon.AnechoicChamber(), talon.WithM(14), talon.WithSeed(9))
	rec := &talon.TraceRecorder{}
	res, err := trainer.Run(context.Background(), dut, peer, talon.Mutual(), talon.WithTracer(rec))
	if err != nil {
		t.Fatal(err)
	}
	if res.SLS == nil {
		t.Fatal("mutual run returned no SLS result")
	}

	events := rec.Events()
	want := []struct{ name, phase string }{
		{"trainer.run", "begin"},
		{"trainer.sweep", "begin"},
		{"trainer.sweep", "end"},
		{"trainer.estimate", "begin"},
		{"trainer.estimate", "end"},
		{"trainer.force", "begin"},
		{"trainer.force", "end"},
		{"trainer.sls", "begin"},
		{"trainer.sls", "end"},
		{"trainer.run", "end"},
	}
	if len(events) != len(want) {
		t.Fatalf("recorded %d events, want %d: %+v", len(events), len(want), events)
	}
	for i, w := range want {
		if events[i].Name != w.name || events[i].Phase != w.phase {
			t.Fatalf("event %d = %s/%s, want %s/%s", i, events[i].Name, events[i].Phase, w.name, w.phase)
		}
	}
	// The run span carries the mode label.
	labels := events[0].Labels
	if len(labels) != 1 || labels[0].Key != "mode" || labels[0].Value != "mutual" {
		t.Fatalf("trainer.run labels = %+v, want mode=mutual", labels)
	}
}

// TestRunWithBackup checks the WithBackup option populates the backup
// selection and leaves SLS unset on a non-mutual run.
func TestRunWithBackup(t *testing.T) {
	trainer, _, dut, peer := buildTrainer(t, talon.ConferenceRoom(), talon.WithM(24), talon.WithSeed(4))
	res, err := trainer.Run(context.Background(), dut, peer, talon.WithBackup(talon.DefaultBackupSeparationDeg))
	if err != nil {
		t.Fatal(err)
	}
	if res.Backup == nil {
		t.Fatal("WithBackup run returned nil Backup")
	}
	if res.Backup.Primary.Sector != res.Sector {
		t.Fatalf("primary %v != selection %v", res.Backup.Primary.Sector, res.Sector)
	}
	if res.SLS != nil {
		t.Fatal("non-mutual run returned an SLS result")
	}
}
