// Command talonctl drives a pair of simulated Talon AD7200 routers: it
// inspects the sector inventory, jailbreaks the firmware, runs sector
// sweeps, reads the measurement ring buffer and forces feedback sectors —
// the workflows Section 3 of the paper enables on the real hardware.
//
// Usage:
//
//	talonctl [flags] <command>
//
// Commands:
//
//	info       show device, codebook and schedule information
//	jailbreak  apply the firmware patches and show the memory map effects
//	sweep      run a mutual sector-level sweep and report the outcome
//	dump       run a sweep and print the measurement ring buffer
//	force      arm the feedback override (use -sector) and verify it
//	train      run one compressive training round (use -m for the budget)
//
// Observability: -metrics dumps the metrics registry as JSON on exit
// ("-" = stdout), -debug serves /metrics and /debug/pprof, -cpuprofile
// writes a pprof CPU profile.
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"

	"talon/internal/channel"
	"talon/internal/dot11ad"
	"talon/internal/nexmon"
	"talon/internal/obs/obscli"
	"talon/internal/sector"
	"talon/internal/wil"
)

var (
	seed    = flag.Int64("seed", 1, "device seed (reproduces the same hardware unit)")
	envName = flag.String("env", "chamber", "environment: chamber, lab or conference")
	dist    = flag.Float64("dist", 3, "device separation in meters")
	secFlag = flag.Int("sector", 12, "sector ID for the force command")
	mFlag   = flag.Int("m", 14, "probe budget for the train command")

	metricsOut = flag.String("metrics", "", "dump the metrics registry as JSON to this file on exit (\"-\" = stdout)")
	debugAddr  = flag.String("debug", "", "serve /metrics and /debug/pprof on this address (e.g. localhost:6060)")
	cpuProfile = flag.String("cpuprofile", "", "write a pprof CPU profile to this file")
)

func main() {
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: talonctl [flags] info|jailbreak|sweep|dump|force|train\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	if flag.NArg() < 1 {
		flag.Usage()
		os.Exit(2)
	}
	cmd := flag.Arg(0)
	// Accept flags after the command too (talonctl force -sector 24).
	if flag.NArg() > 1 {
		if err := flag.CommandLine.Parse(flag.Args()[1:]); err != nil {
			os.Exit(2)
		}
		if flag.NArg() != 0 {
			flag.Usage()
			os.Exit(2)
		}
	}
	cleanup, err := obscli.HookCLI(*metricsOut, *debugAddr, *cpuProfile)
	if err != nil {
		fmt.Fprintln(os.Stderr, "talonctl:", err)
		os.Exit(1)
	}
	err = run(cmd)
	if cerr := cleanup(); cerr != nil && err == nil {
		err = cerr
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "talonctl:", err)
		os.Exit(1)
	}
}

func environment() (*channel.Environment, error) {
	switch *envName {
	case "chamber":
		return channel.AnechoicChamber(), nil
	case "lab":
		return channel.Lab(), nil
	case "conference":
		return channel.ConferenceRoom(), nil
	}
	return nil, fmt.Errorf("unknown environment %q", *envName)
}

func buildPair() (*wil.Link, *wil.Device, *wil.Device, error) {
	env, err := environment()
	if err != nil {
		return nil, nil, nil, err
	}
	a, err := wil.NewDevice(wil.Config{
		Name: "talon-a",
		MAC:  dot11ad.MACAddr{0x50, 0xc7, 0xbf, 0, 0, 0x01},
		Seed: *seed,
	})
	if err != nil {
		return nil, nil, nil, err
	}
	b, err := wil.NewDevice(wil.Config{
		Name: "talon-b",
		MAC:  dot11ad.MACAddr{0x50, 0xc7, 0xbf, 0, 0, 0x02},
		Seed: *seed + 1,
	})
	if err != nil {
		return nil, nil, nil, err
	}
	poseA := channel.Pose{}
	poseA.Pos.Z = 1.2
	poseB := channel.Pose{Yaw: 180}
	poseB.Pos.X = *dist
	poseB.Pos.Z = 1.2
	a.SetPose(poseA)
	b.SetPose(poseB)
	return wil.NewLink(env, a, b), a, b, nil
}

func run(cmd string) error {
	switch cmd {
	case "info":
		return cmdInfo()
	case "jailbreak":
		return cmdJailbreak()
	case "sweep":
		return cmdSweep()
	case "dump":
		return cmdDump()
	case "force":
		return cmdForce()
	case "train":
		return cmdTrain()
	}
	return fmt.Errorf("unknown command %q", cmd)
}

func cmdInfo() error {
	_, a, _, err := buildPair()
	if err != nil {
		return err
	}
	fmt.Printf("device %s (%s), %d antenna elements, %d-state phase shifters\n",
		a.Name(), a.MAC(), a.Array().NumElements(), a.Array().PhaseStates())
	fmt.Printf("codebook: %d sectors (%d TX + quasi-omni RX)\n", a.Codebook().Len(), len(sector.TalonTX()))
	fmt.Printf("beacon interval %v, sweep at least every %v\n", dot11ad.BeaconInterval, dot11ad.SweepInterval)
	fmt.Printf("mutual training: full sweep %v, 14-probe compressive %v (%.2fx)\n",
		dot11ad.MutualTrainingTime(34), dot11ad.MutualTrainingTime(14), dot11ad.TrainingSpeedup(14, 34))
	fmt.Println("\nstock sweep burst (sector @ CDOWN):")
	for _, s := range dot11ad.SweepSchedule() {
		if s.Used {
			fmt.Printf("  %2v @ %2d\n", s.Sector, s.CDOWN)
		}
	}
	return nil
}

func cmdJailbreak() error {
	_, a, _, err := buildPair()
	if err != nil {
		return err
	}
	fw := a.Firmware()
	fmt.Println("stock firmware:")
	fmt.Printf("  sweep dump readable: %v\n", fw.SweepDumpEnabled())
	fmt.Printf("  sector override:     %v\n", fw.OverrideEnabled())

	// Demonstrate the write-protection trick of Figure 1.
	low := uint32(nexmon.UcodeCodeBase + 0x16000)
	if err := fw.Memory().Write(low, []byte{0x90}); err != nil {
		fmt.Printf("  write to ucode code at %#08x: %v\n", low, err)
	}
	alias, err := fw.Memory().AliasOf(low)
	if err != nil {
		return err
	}
	fmt.Printf("  writable alias of %#08x is %#08x\n", low, alias)

	if err := a.Jailbreak(); err != nil {
		return err
	}
	fmt.Println("after applying the Nexmon-style patches:")
	for _, p := range fw.Framework().Patches() {
		fmt.Printf("  %-16s @ %#08x (%s)\n", p.Name, p.Addr, p.Description)
	}
	fmt.Printf("  sweep dump readable: %v\n", fw.SweepDumpEnabled())
	fmt.Printf("  sector override:     %v\n", fw.OverrideEnabled())
	return nil
}

func cmdSweep() error {
	link, a, b, err := buildPair()
	if err != nil {
		return err
	}
	slots := dot11ad.SweepSchedule()
	res, err := link.RunSLS(a, b, slots, slots)
	if err != nil {
		return err
	}
	fmt.Printf("mutual sector-level sweep in %s at %.1f m:\n", link.Env.Name, *dist)
	fmt.Printf("  frames: %d sent, %d delivered\n", res.FramesSent, res.FramesDelivered)
	fmt.Printf("  initiator TX sector: %v (ok=%v)\n", res.InitiatorTX, res.InitiatorTXOK)
	fmt.Printf("  responder TX sector: %v (ok=%v)\n", res.ResponderTX, res.ResponderTXOK)
	fmt.Printf("  feedback/ack delivered: %v/%v\n", res.FeedbackDelivered, res.AckDelivered)
	fmt.Printf("  airtime: %v\n", res.Duration)
	fmt.Println("  responder-side measurements (initiator sectors):")
	truth := link.GroundTruth(a, b)
	for _, id := range sector.TalonTX() {
		if m, ok := res.AtResponder[id]; ok {
			fmt.Printf("    sector %2v: SNR %6.2f dB, RSSI %5.0f dBm (true %6.2f dB)\n",
				id, m.SNR, m.RSSI, truth.SNR(id))
		}
	}
	return nil
}

func cmdDump() error {
	link, a, b, err := buildPair()
	if err != nil {
		return err
	}
	// On stock firmware the ring buffer is unreadable; show the typed
	// rejection before jailbreaking.
	if _, err := b.SweepDump(); errors.Is(err, wil.ErrNotJailbroken) {
		fmt.Printf("stock firmware refuses the dump (%v); jailbreaking %s\n", err, b.Name())
	}
	if err := b.Jailbreak(); err != nil {
		return err
	}
	if _, err := link.RunTXSS(a, b, dot11ad.SweepSchedule()); err != nil {
		return err
	}
	recs, err := b.SweepDump()
	if err != nil {
		return err
	}
	fmt.Printf("ring buffer of %s: %d records\n", b.Name(), len(recs))
	for _, r := range recs {
		fmt.Printf("  #%04d sector %2v cdown %2d  SNR %6.2f dB  RSSI %4.0f dBm\n",
			r.Seq, r.Sector, r.CDOWN, r.SNR, r.RSSI)
	}
	return nil
}

func cmdForce() error {
	link, a, b, err := buildPair()
	if err != nil {
		return err
	}
	id := sector.ID(*secFlag)
	if !sector.IsTalonTX(id) {
		return fmt.Errorf("sector %d is not a Talon TX sector", *secFlag)
	}
	if err := b.Jailbreak(); err != nil {
		return err
	}
	if err := b.ForceSector(id); err != nil {
		if errors.Is(err, sector.ErrUnknown) {
			return fmt.Errorf("firmware rejected sector %v: %w", id, err)
		}
		return err
	}
	slots := dot11ad.SweepSchedule()
	res, err := link.RunSLS(a, b, slots, slots)
	if err != nil {
		return err
	}
	fmt.Printf("override armed with sector %v\n", id)
	fmt.Printf("feedback received by initiator: sector %v (ok=%v)\n", res.InitiatorTX, res.InitiatorTXOK)
	if res.InitiatorTXOK && res.InitiatorTX == id {
		fmt.Println("feedback field successfully overwritten")
	}
	return nil
}
