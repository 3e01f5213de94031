// Command patternscan runs the Section 4 measurement campaign: a device
// under test rotates on a stepper head in an anechoic chamber while a
// fixed probe records sector-sweep frames, producing the 3D radiation
// patterns of all 35 predefined sectors.
//
// Output goes to a CSV pattern file plus a per-sector summary on
// stdout.
//
// The paper's exact resolutions:
//
//	azimuth cut (Figure 5):  -az-min=-180 -az-max=180 -az-step=0.9 -el-max=0
//	spherical  (Figure 6):   -az-min=-90  -az-max=90  -az-step=1.8 -el-max=32.4 -el-step=3.6
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"time"

	"talon/internal/channel"
	"talon/internal/dot11ad"
	"talon/internal/geom"
	"talon/internal/obs/obscli"
	"talon/internal/pattern"
	"talon/internal/testbed"
	"talon/internal/wil"
)

var (
	seed    = flag.Int64("seed", 1, "device seed")
	azMin   = flag.Float64("az-min", -90, "azimuth range start (degrees)")
	azMax   = flag.Float64("az-max", 90, "azimuth range end (degrees)")
	azStep  = flag.Float64("az-step", 1.8, "azimuth step (degrees)")
	elMin   = flag.Float64("el-min", 0, "elevation range start (degrees)")
	elMax   = flag.Float64("el-max", 32.4, "elevation range end (degrees)")
	elStep  = flag.Float64("el-step", 3.6, "elevation step (degrees)")
	repeats = flag.Int("repeats", 3, "sweeps averaged per grid point")
	out     = flag.String("o", "", "output CSV pattern file; omit for summary only")

	metricsOut = flag.String("metrics", "", "dump the metrics registry as JSON to this file on exit (\"-\" = stdout)")
	debugAddr  = flag.String("debug", "", "serve /metrics and /debug/pprof on this address (e.g. localhost:6060)")
	cpuProfile = flag.String("cpuprofile", "", "write a pprof CPU profile to this file")
)

func main() {
	flag.Parse()
	cleanup, err := obscli.HookCLI(*metricsOut, *debugAddr, *cpuProfile)
	if err != nil {
		fmt.Fprintln(os.Stderr, "patternscan:", err)
		os.Exit(1)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	err = run(ctx)
	if cerr := cleanup(); cerr != nil && err == nil {
		err = cerr
	}
	if err != nil {
		if errors.Is(err, context.Canceled) {
			fmt.Fprintln(os.Stderr, "patternscan: interrupted")
			os.Exit(130)
		}
		fmt.Fprintln(os.Stderr, "patternscan:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context) error {
	grid, err := geom.UniformGrid(*azMin, *azMax, *azStep, *elMin, *elMax, *elStep)
	if err != nil {
		return err
	}
	dut, err := wil.NewDevice(wil.Config{
		Name: "dut",
		MAC:  dot11ad.MACAddr{0x50, 0xc7, 0xbf, 0, 0, 0x01},
		Seed: *seed,
	})
	if err != nil {
		return err
	}
	probe, err := wil.NewDevice(wil.Config{
		Name: "probe",
		MAC:  dot11ad.MACAddr{0x50, 0xc7, 0xbf, 0, 0, 0x02},
		Seed: *seed + 1,
	})
	if err != nil {
		return err
	}
	if err := dut.Jailbreak(); err != nil {
		return err
	}
	if err := probe.Jailbreak(); err != nil {
		return err
	}
	link := wil.NewLink(channel.AnechoicChamber(), dut, probe)
	campaign := testbed.NewChamberCampaign(link, dut, probe, *seed+2)
	campaign.Repeats = *repeats

	fmt.Fprintf(os.Stderr, "measuring %d grid points x %d repeats x 35 sectors...\n", grid.Size(), *repeats)
	start := time.Now()
	set, err := campaign.MeasureAllPatterns(ctx, grid)
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "campaign finished in %v\n", time.Since(start).Round(time.Millisecond))

	fmt.Printf("%-7s %9s %9s %9s %12s\n", "sector", "peak az", "peak el", "peak SNR", "directivity")
	for _, id := range set.IDs() {
		p := set.Get(id)
		az, el, g := p.Peak()
		fmt.Printf("%-7v %8.1f° %8.1f° %6.2f dB %9.2f dB\n", id, az, el, g, p.Directivity())
	}

	if *out == "" {
		return nil
	}
	f, err := os.Create(*out)
	if err != nil {
		return err
	}
	if err := set.WriteCSV(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "patterns written to %s\n", *out)
	return verifyRoundTrip(*out, set)
}

// verifyRoundTrip re-reads the written file to guarantee it loads.
func verifyRoundTrip(path string, want *pattern.Set) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	got, err := pattern.ReadCSV(f)
	if err != nil {
		return fmt.Errorf("verify %s: %w", path, err)
	}
	if got.Len() != want.Len() {
		return fmt.Errorf("verify %s: %d sectors, wrote %d", path, got.Len(), want.Len())
	}
	return nil
}
