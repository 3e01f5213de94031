// Blockage: survive a blocked line of sight without retraining. One
// compressive probing round estimates both the LOS and the whiteboard
// reflection; when a person steps into the LOS, the link switches to the
// pre-computed backup sector pointing at the reflection — the BeamSpy
// idea built on this paper's multipath-capable estimator.
package main

import (
	"context"
	"fmt"
	"log"

	"talon"
	"talon/internal/channel"
)

func main() {
	ap, err := talon.NewDevice(talon.DeviceConfig{Name: "ap", Seed: 8})
	if err != nil {
		log.Fatal(err)
	}
	sta, err := talon.NewDevice(talon.DeviceConfig{Name: "sta", Seed: 9})
	if err != nil {
		log.Fatal(err)
	}
	for _, d := range []*talon.Device{ap, sta} {
		if err := d.Jailbreak(); err != nil {
			log.Fatal(err)
		}
	}
	ctx := context.Background()
	patterns, err := talon.MeasurePatterns(ctx, ap, sta, talon.DefaultPatternGrid(), 3)
	if err != nil {
		log.Fatal(err)
	}

	// A conference room with a metal whiteboard beside the link: the
	// environment offers a usable reflected path.
	room := talon.ConferenceRoom()
	room.Reflectors = append(room.Reflectors,
		channel.NewWallY("metal-whiteboard", 1.6, 1.0, 5.0, 0.6, 2.0, 5))
	blockedRoom := talon.ConferenceRoom()
	blockedRoom.Reflectors = room.Reflectors
	blockedRoom.LOSBlocked = true

	apPose := talon.Pose{}
	apPose.Pos.Z = 1.2
	staPose := talon.Pose{Yaw: 180}
	staPose.Pos.X = 6
	staPose.Pos.Z = 1.2
	ap.SetPose(apPose)
	sta.SetPose(staPose)

	link := talon.NewLink(room, ap, sta)
	est, err := talon.NewEstimator(patterns, talon.EstimatorOptions{})
	if err != nil {
		log.Fatal(err)
	}
	trainer, err := talon.NewTrainer(link, est, talon.WithM(24), talon.WithSeed(4))
	if err != nil {
		log.Fatal(err)
	}

	// Train once; keep both the primary and the backup sector. Retry a
	// few rounds if the reflection did not show in the random subset.
	var res *talon.RunResult
	var backup talon.BackupSelection
	for i := 0; i < 8; i++ {
		res, err = trainer.Run(ctx, ap, sta, talon.WithBackup(talon.DefaultBackupSeparationDeg))
		if err != nil {
			log.Fatal(err)
		}
		backup = *res.Backup
		if backup.HasBackup {
			break
		}
	}
	fmt.Printf("primary path: (%.1f°, %.1f°) -> sector %v, true SNR %.1f dB\n",
		backup.Primary.AoA.Az, backup.Primary.AoA.El, res.Sector, link.GroundTruth(ap, sta).SNR(res.Sector))
	if !backup.HasBackup {
		fmt.Println("no secondary path detected; nothing to fall back to")
		return
	}
	fmt.Printf("backup path:  (%.1f°, %.1f°) -> sector %v, true SNR %.1f dB\n",
		backup.Backup.AoA.Az, backup.Backup.AoA.El, backup.Backup.Sector,
		link.GroundTruth(ap, sta).SNR(backup.Backup.Sector))

	// Someone walks into the line of sight.
	blocked := talon.NewLink(blockedRoom, ap, sta).GroundTruth(ap, sta)
	fmt.Println("\n-- LOS blocked --")
	fmt.Printf("primary sector %v now: %.1f dB (link dead)\n",
		res.Sector, blocked.SNR(res.Sector))
	fmt.Printf("backup  sector %v now: %.1f dB (link survives on the reflection)\n",
		backup.Backup.Sector, blocked.SNR(backup.Backup.Sector))

	best, bestSNR := talon.SectorID(0), -1e9
	for _, id := range talon.TalonTXSectors() {
		if snr := blocked.SNR(id); snr > bestSNR {
			best, bestSNR = id, snr
		}
	}
	fmt.Printf("oracle under blockage: sector %v at %.1f dB — the backup was %.1f dB away, with zero retraining\n",
		best, bestSNR, bestSNR-blocked.SNR(backup.Backup.Sector))
}
