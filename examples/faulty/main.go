// Faulty: train over a hostile 60 GHz channel. A deterministic fault
// injector (Gilbert–Elliott burst loss, RSSI drift, stale feedback,
// ring-drop storms, transient WMI failures) sits between the devices;
// the resilient trainer retries with fresh probe subsets, verifies the
// pick with a post-selection SNR probe, and degrades to the stock full
// sector sweep when compressive training cannot be trusted.
package main

import (
	"context"
	"fmt"
	"log"

	"talon"
)

func main() {
	ap, err := talon.NewDevice(talon.DeviceConfig{Name: "ap", Seed: 20})
	if err != nil {
		log.Fatal(err)
	}
	sta, err := talon.NewDevice(talon.DeviceConfig{Name: "sta", Seed: 21})
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

	link := talon.NewLink(talon.Lab(), ap, sta)
	apPose := talon.Pose{}
	apPose.Pos.Z = 1.2
	ap.SetPose(apPose)
	staPose := talon.Pose{Yaw: 180}
	staPose.Pos.X = 3
	staPose.Pos.Z = 1.2
	sta.SetPose(staPose)

	// A clean reference first: what does CSS pick with no impairments?
	est, err := talon.NewEstimator(patterns, talon.EstimatorOptions{})
	if err != nil {
		log.Fatal(err)
	}
	trainer, err := talon.NewTrainer(link, est, talon.WithM(14), talon.WithSeed(7))
	if err != nil {
		log.Fatal(err)
	}
	clean, err := trainer.Run(ctx, ap, sta)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("clean channel:  sector %v, true SNR %.1f dB\n",
		clean.Sector, link.GroundTruth(ap, sta).SNR(clean.Sector))

	// Now make the channel hostile: 20% frame loss in bursts of ~4,
	// plus measurement drift, stale feedback and flaky WMI — all
	// deterministic under the seed.
	link.SetInjector(talon.Standard60GHzFaults(0.20, 4, 99))

	// A resilient run retries up to three times with exponential
	// backoff (virtual clock — no real sleeping) and verifies the
	// selection with a post-training SNR probe; if everything fails it
	// falls back to the stock 34-sector sweep rather than erroring.
	res, err := trainer.Run(ctx, ap, sta,
		talon.WithRetry(3, talon.DefaultRetryBackoff),
		talon.WithSNRCheck(8))
	if err != nil {
		log.Fatal(err)
	}

	link.SetInjector(nil) // read the truth without impairments
	fmt.Printf("lossy channel:  sector %v, true SNR %.1f dB after %d attempt(s)\n",
		res.Sector, link.GroundTruth(ap, sta).SNR(res.Sector), res.Attempts)
	if res.Degraded() {
		fmt.Printf("training degraded to the full sweep (reason: %s)\n",
			res.Selection.FallbackReason)
	} else {
		fmt.Println("compressive training survived the loss")
	}
}
