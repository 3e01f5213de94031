// Quickstart: measure a device's sector patterns once, then use
// compressive sector selection (CSS) to train a conference-room link with
// 14 probes instead of the stock 34-sector sweep, and compare the two.
package main

import (
	"context"
	"fmt"
	"log"

	"talon"
)

func main() {
	// Two simulated Talon AD7200 routers. The seed freezes each unit's
	// hardware imperfections.
	dut, err := talon.NewDevice(talon.DeviceConfig{Name: "ap", Seed: 1})
	if err != nil {
		log.Fatal(err)
	}
	sta, err := talon.NewDevice(talon.DeviceConfig{Name: "sta", Seed: 2})
	if err != nil {
		log.Fatal(err)
	}
	// The paper's firmware patches: expose measurements, allow forcing
	// the feedback sector.
	if err := dut.Jailbreak(); err != nil {
		log.Fatal(err)
	}
	if err := sta.Jailbreak(); err != nil {
		log.Fatal(err)
	}

	// One-time pattern campaign in the anechoic chamber (Section 4).
	fmt.Println("measuring sector patterns in the chamber...")
	ctx := context.Background()
	patterns, err := talon.MeasurePatterns(ctx, dut, sta, talon.DefaultPatternGrid(), 3)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("measured %d sector patterns\n\n", patterns.Len())

	// Deploy the pair in the conference room, 6 m apart, the AP turned
	// 25° away from the station.
	link := talon.NewLink(talon.ConferenceRoom(), dut, sta)
	apPose := talon.Pose{Yaw: -25}
	apPose.Pos.Z = 1.2
	staPose := talon.Pose{Yaw: 180}
	staPose.Pos.X = 6
	staPose.Pos.Z = 1.2
	dut.SetPose(apPose)
	sta.SetPose(staPose)

	// Compressive training with 14 probing sectors.
	est, err := talon.NewEstimator(patterns, talon.EstimatorOptions{})
	if err != nil {
		log.Fatal(err)
	}
	trainer, err := talon.NewTrainer(link, est, talon.WithM(14), talon.WithSeed(7))
	if err != nil {
		log.Fatal(err)
	}
	res, err := trainer.Run(ctx, dut, sta, talon.Mutual())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("CSS probed %d sectors: %v\n", len(res.Probed), res.Probed)
	if !res.Selection.Fallback {
		fmt.Printf("estimated departure angle: (%.1f°, %.1f°)\n", res.Selection.AoA.Az, res.Selection.AoA.El)
	}
	fmt.Printf("selected sector %v (true SNR %.1f dB)\n", res.Sector, link.GroundTruth(dut, sta).SNR(res.Sector))
	fmt.Printf("training airtime: %.0f µs vs %.0f µs for the full sweep (%.1fx faster)\n\n",
		1e6*talon.MutualTrainingTime(14), 1e6*talon.MutualTrainingTime(34),
		talon.MutualTrainingTime(34)/talon.MutualTrainingTime(14))

	// Reference: what the stock full sector sweep would pick.
	truth := link.GroundTruth(dut, sta)
	best, bestSNR := talon.SectorID(0), -1e9
	for _, id := range talon.TalonTXSectors() {
		if snr := truth.SNR(id); snr > bestSNR {
			best, bestSNR = id, snr
		}
	}
	fmt.Printf("true optimum: sector %v at %.1f dB — CSS is %.1f dB off after probing %d/34 sectors\n",
		best, bestSNR, bestSNR-truth.SNR(res.Sector), len(res.Probed))
}
