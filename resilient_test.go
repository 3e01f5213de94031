package talon_test

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"talon"
	"talon/internal/fault"
)

// firstNDrops loses the first N frames on the link and then goes quiet —
// a blockage that clears between the first CSS attempt and the retry.
type firstNDrops struct {
	fault.Nop
	n int
}

func (d *firstNDrops) DropFrame(fault.FrameEvent) bool {
	if d.n <= 0 {
		return false
	}
	d.n--
	return true
}

func TestRunRetryRecoversFromTransientLoss(t *testing.T) {
	trainer, link, dut, peer := buildTrainer(t, talon.AnechoicChamber(), talon.WithM(14), talon.WithSeed(7))
	// Lose every probe of the first attempt (M = 14), then clear up.
	link.SetInjector(&firstNDrops{n: 14})

	res, err := trainer.Run(context.Background(), dut, peer,
		talon.WithRetry(2, time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	if res.Attempts != 2 {
		t.Fatalf("Attempts = %d, want 2 (one retry)", res.Attempts)
	}
	if res.Degraded() {
		t.Fatalf("recovered run reported degraded: %+v", res.Selection)
	}
	if res.Selection.FallbackReason != talon.FallbackNone {
		t.Fatalf("recovered run carries reason %q", res.Selection.FallbackReason)
	}
}

func TestRunDegradesToFullSweepOnPersistentWMIFault(t *testing.T) {
	trainer, link, dut, peer := buildTrainer(t, talon.AnechoicChamber(), talon.WithM(14), talon.WithSeed(8))
	// Every WMI command times out, so arming the override fails on every
	// CSS attempt; the fallback tolerates that and still selects.
	link.SetInjector(fault.NewWMIFlake(1, 3))

	res, err := trainer.Run(context.Background(), dut, peer,
		talon.WithRetry(2, time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Degraded() {
		t.Fatalf("run under persistent WMI faults did not degrade: %+v", res.Selection)
	}
	if res.Selection.FallbackReason != talon.FallbackTransientFault {
		t.Fatalf("reason = %q, want %q", res.Selection.FallbackReason, talon.FallbackTransientFault)
	}
	if !res.Selection.Fallback {
		t.Fatal("degraded selection must be a sweep-argmax fallback")
	}
	if res.Attempts != 3 {
		t.Fatalf("Attempts = %d, want 3 (initial + 2 retries)", res.Attempts)
	}
	if len(res.Probed) != len(talon.TalonTXSectors()) {
		t.Fatalf("fallback probed %d sectors, want the full sweep", len(res.Probed))
	}
	if !res.Sector.Valid() {
		t.Fatalf("degraded run selected invalid sector %v", res.Sector)
	}
}

// TestRunWithBackupDegradedKeepsBackup holds RunResult.Backup's contract
// on the degraded path: a WithBackup run that falls back to the full
// sweep still returns a non-nil Backup, whose primary is the degraded
// selection and which carries no backup sector.
func TestRunWithBackupDegradedKeepsBackup(t *testing.T) {
	trainer, link, dut, peer := buildTrainer(t, talon.AnechoicChamber(), talon.WithM(14), talon.WithSeed(8))
	link.SetInjector(fault.NewWMIFlake(1, 3))

	res, err := trainer.Run(context.Background(), dut, peer,
		talon.WithBackup(18), talon.WithRetry(2, time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Degraded() {
		t.Fatalf("run under persistent WMI faults did not degrade: %+v", res.Selection)
	}
	if res.Backup == nil {
		t.Fatal("degraded WithBackup run returned a nil Backup")
	}
	if res.Backup.HasBackup {
		t.Fatalf("full-sweep fallback reported a backup sector: %+v", res.Backup.Backup)
	}
	if res.Backup.Primary.Sector != res.Sector || !res.Backup.Primary.Degraded {
		t.Fatalf("Backup.Primary = %+v, want the degraded selection %+v", res.Backup.Primary, res.Selection)
	}
}

func TestRunSNRCheckSurfacesSentinelWithoutRetry(t *testing.T) {
	trainer, _, dut, peer := buildTrainer(t, talon.AnechoicChamber(), talon.WithM(14), talon.WithSeed(9))
	_, err := trainer.Run(context.Background(), dut, peer, talon.WithSNRCheck(1000))
	if !errors.Is(err, talon.ErrSNRCheckFailed) {
		t.Fatalf("err = %v, want wrap of ErrSNRCheckFailed", err)
	}
}

func TestRunSNRCheckDegradesUnderRetry(t *testing.T) {
	trainer, _, dut, peer := buildTrainer(t, talon.AnechoicChamber(), talon.WithM(14), talon.WithSeed(10))
	res, err := trainer.Run(context.Background(), dut, peer,
		talon.WithSNRCheck(1000), talon.WithRetry(1, time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Degraded() || res.Selection.FallbackReason != talon.FallbackSNRCheck {
		t.Fatalf("selection = %+v, want degraded with snr-check reason", res.Selection)
	}
	// The degraded selection renders its reason in both text forms.
	if s := res.Selection.String(); s == "" || res.Selection.FallbackReason == talon.FallbackNone {
		t.Fatalf("degraded selection String() = %q", s)
	}
	raw, err := res.Selection.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	if got := string(raw); !strings.Contains(got, `"degraded":true`) || !strings.Contains(got, `"fallback_reason":"snr-check"`) {
		t.Fatalf("selection JSON missing degradation fields: %s", got)
	}
}

func TestRunWithRetryMatchesPlainRunOnCleanChannel(t *testing.T) {
	t1, _, dut1, peer1 := buildTrainer(t, talon.AnechoicChamber(), talon.WithM(14), talon.WithSeed(33))
	t2, _, dut2, peer2 := buildTrainer(t, talon.AnechoicChamber(), talon.WithM(14), talon.WithSeed(33))

	plain, err := t1.Run(context.Background(), dut1, peer1)
	if err != nil {
		t.Fatal(err)
	}
	resilient, err := t2.Run(context.Background(), dut2, peer2, talon.WithRetry(3, time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	if plain.Sector != resilient.Sector {
		t.Fatalf("WithRetry changed a clean-channel run: %v vs %v", plain.Sector, resilient.Sector)
	}
	if resilient.Attempts != 1 {
		t.Fatalf("clean channel took %d attempts", resilient.Attempts)
	}
}
