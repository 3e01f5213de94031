// Tracking: keep a moving receiver connected with frequent compressive
// retraining, the Section 7 scenario. A station orbits the access point;
// every beacon-ish interval the link retrains. The adaptive probe-count
// controller spends few probes while the station dwells and ramps up when
// it moves, tracking as well as a full sweep at a fraction of the
// airtime.
package main

import (
	"context"
	"fmt"
	"log"
	"math"

	"talon"
	"talon/internal/core"
	"talon/internal/geom"
)

func main() {
	ap, err := talon.NewDevice(talon.DeviceConfig{Name: "ap", Seed: 5})
	if err != nil {
		log.Fatal(err)
	}
	sta, err := talon.NewDevice(talon.DeviceConfig{Name: "sta", Seed: 6})
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

	est, err := talon.NewEstimator(patterns, talon.EstimatorOptions{})
	if err != nil {
		log.Fatal(err)
	}
	trainer, err := talon.NewTrainer(link, est, talon.WithM(34), talon.WithSeed(11))
	if err != nil {
		log.Fatal(err)
	}
	ctrl := core.NewAdaptiveController(8, 34)

	// The station's path: dwell at 20°, walk to -35°, dwell, return.
	angleAt := func(step int) float64 {
		switch {
		case step < 15:
			return 20
		case step < 30:
			return 20 - 55*float64(step-15)/15
		case step < 45:
			return -35
		default:
			return -35 + 40*float64(step-45)/15
		}
	}

	fmt.Println("step  sta-az  probes  sector  true-SNR  loss   note")
	totalProbes, fullProbes := 0, 0
	for step := 0; step < 60; step++ {
		az := angleAt(step)
		staPose := talon.Pose{Yaw: 180 + az}
		staPose.Pos.X = 3 * math.Cos(geom.Deg2Rad(az))
		staPose.Pos.Y = 3 * math.Sin(geom.Deg2Rad(az))
		staPose.Pos.Z = 1.2
		sta.SetPose(staPose)

		if err := trainer.SetM(ctrl.M()); err != nil {
			log.Fatal(err)
		}
		res, err := trainer.Run(ctx, ap, sta)
		if err != nil {
			log.Fatal(err)
		}
		ctrl.Observe(res.Sector)
		totalProbes += len(res.Probed)
		fullProbes += 34

		truth := link.GroundTruth(ap, sta)
		best := math.Inf(-1)
		for _, id := range talon.TalonTXSectors() {
			if snr := truth.SNR(id); snr > best {
				best = snr
			}
		}
		got := truth.SNR(res.Sector)
		note := ""
		if step == 15 || step == 45 {
			note = "station starts moving"
		}
		if step == 30 {
			note = "station dwells"
		}
		if step%5 == 0 || note != "" {
			fmt.Printf("%4d  %5.1f°  %6d  %6v  %7.1f dB %5.1f  %s\n",
				step, az, len(res.Probed), res.Sector, got, best-got, note)
		}
	}
	fmt.Printf("\nadaptive controller probed %d sectors over 60 rounds (full sweeps: %d) — %.0f%% airtime saved\n",
		totalProbes, fullProbes, 100*(1-float64(totalProbes)/float64(fullProbes)))
}
