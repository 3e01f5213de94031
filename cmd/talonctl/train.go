package main

import (
	"context"
	"fmt"

	"talon"
)

// cmdTrain runs one compressive training round on the public API: a
// quick chamber pattern campaign, then Trainer.Run with the full
// protocol exchange in the selected environment.
func cmdTrain() error {
	ctx := context.Background()
	link, a, b, err := buildPair()
	if err != nil {
		return err
	}
	for _, d := range []*talon.Device{a, b} {
		if err := d.Jailbreak(); err != nil {
			return err
		}
	}

	// A coarse grid keeps the one-off campaign interactive; accuracy
	// studies use patternscan/evalrunner at full resolution.
	grid, err := talon.NewGrid(-90, 90, 6, 0, 32, 8)
	if err != nil {
		return err
	}
	fmt.Printf("measuring patterns on a %d-point grid...\n", grid.Size())
	patterns, err := talon.MeasurePatterns(ctx, a, b, grid, 1)
	if err != nil {
		return err
	}

	// The campaign repositioned the pair; restore the -env deployment.
	poseA := talon.Pose{}
	poseA.Pos.Z = 1.2
	poseB := talon.Pose{Yaw: 180}
	poseB.Pos.X = *dist
	poseB.Pos.Z = 1.2
	a.SetPose(poseA)
	b.SetPose(poseB)

	est, err := talon.NewEstimator(patterns, talon.EstimatorOptions{})
	if err != nil {
		return err
	}
	trainer, err := talon.NewTrainer(link, est, talon.WithM(*mFlag), talon.WithSeed(*seed))
	if err != nil {
		return err
	}
	res, err := trainer.Run(ctx, a, b, talon.Mutual())
	if err != nil {
		return err
	}
	fmt.Printf("compressive training in %s at %.1f m (M = %d):\n", link.Env.Name, *dist, *mFlag)
	fmt.Printf("  probed sectors: %v\n", res.Probed)
	fmt.Printf("  selection: %v\n", res.Selection)
	fmt.Printf("  true SNR on sector %v: %.1f dB\n", res.Sector, link.GroundTruth(a, b).SNR(res.Sector))
	if sls := res.SLS; sls != nil {
		fmt.Printf("  SLS: %d/%d frames delivered, feedback=%v ack=%v, airtime %v\n",
			sls.FramesDelivered, sls.FramesSent, sls.FeedbackDelivered, sls.AckDelivered, sls.Duration)
	}
	return nil
}
