package testbed

import (
	"context"
	"fmt"

	"talon/internal/dot11ad"
	"talon/internal/geom"
	"talon/internal/pattern"
	"talon/internal/radio"
	"talon/internal/sector"
	"talon/internal/stats"
	"talon/internal/wil"
)

// Campaign runs the Section 4 measurement procedure: the device under
// test sits on the rotation head in an anechoic chamber, a fixed probe
// device three meters away records the signal strength of sector-sweep
// frames, and the head steps through the angular grid.
type Campaign struct {
	// Link couples DUT and Probe (normally in channel.AnechoicChamber()).
	Link *wil.Link
	// DUT is the rotating device whose patterns are being measured.
	DUT *wil.Device
	// Probe is the fixed device.
	Probe *wil.Device
	// Head positions the DUT.
	Head *RotationHead
	// Repeats is the number of sector sweeps averaged per grid point.
	Repeats int
	// OutlierWindow / OutlierThreshDB / GapFloorDB configure the
	// post-processing (outlier removal and gap interpolation) applied to
	// the raw samples, as in the paper. Zero values pick defaults.
	OutlierWindow   int
	OutlierThreshDB float64
	GapFloorDB      float64
}

func (c *Campaign) defaults() {
	if c.Repeats <= 0 {
		c.Repeats = 3
	}
	if c.OutlierWindow <= 0 {
		// Immediate neighbours only: a wider window would span more than
		// a beamwidth on coarse grids and flag genuine main lobes.
		c.OutlierWindow = 1
	}
	if c.OutlierThreshDB <= 0 {
		c.OutlierThreshDB = 6
	}
	if c.GapFloorDB == 0 {
		c.GapFloorDB = radio.SNRMinDB
	}
}

// MeasureTXPatterns measures the 3D transmit pattern of every predefined
// sector on grid: per grid point the DUT transmits Repeats sector sweeps
// whose per-sector SNR readings at the probe are averaged; afterwards each
// sector's map is cleaned of outliers and interpolated over gaps. The
// context is observed between grid points; a cancelled campaign returns
// ctx.Err().
func (c *Campaign) MeasureTXPatterns(ctx context.Context, grid *geom.Grid) (*pattern.Set, error) {
	c.defaults()
	txIDs := sector.TalonTX()
	raw := make(map[sector.ID]*pattern.Pattern, len(txIDs))
	for _, id := range txIDs {
		raw[id] = pattern.New(grid)
	}
	slots := dot11ad.SweepSchedule()
	fw := c.Probe.Firmware()
	// sums[i] and counts[i] accumulate txIDs[i]'s readings at one point.
	sums := make([]float64, len(txIDs))
	counts := make([]int, len(txIDs))

	for ei, el := range grid.El() {
		for ai, az := range grid.Az() {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			c.Head.PointAt(c.DUT, az, el)
			clear(sums)
			clear(counts)
			for r := 0; r < c.Repeats; r++ {
				if err := c.Link.Sweep(c.DUT, c.Probe, slots); err != nil {
					return nil, fmt.Errorf("testbed: TXSS at (%v, %v): %w", az, el, err)
				}
				for i, id := range txIDs {
					if m, ok := fw.SweepMeasurement(id); ok {
						sums[i] += m.SNR
						counts[i]++
					}
				}
			}
			for i, id := range txIDs {
				if n := counts[i]; n > 0 {
					raw[id].Set(ai, ei, sums[i]/float64(n))
				}
			}
		}
	}

	set := pattern.NewSet()
	for _, id := range txIDs {
		p := raw[id]
		p.RemoveOutliers(c.OutlierWindow, c.OutlierThreshDB)
		p.FillGaps(c.GapFloorDB)
		if err := set.Put(id, p); err != nil {
			return nil, err
		}
	}
	return set, nil
}

// MeasureRXPattern measures the quasi-omni receive pattern: the roles
// switch, the fixed probe transmits on sector 63 only ("as it has a strong
// unidirectional gain"), and the rotating DUT records what it receives.
func (c *Campaign) MeasureRXPattern(ctx context.Context, grid *geom.Grid) (*pattern.Pattern, error) {
	c.defaults()
	p := pattern.New(grid)
	slots := dot11ad.SubSweepSchedule(sector.NewSet(63))
	for ei, el := range grid.El() {
		for ai, az := range grid.Az() {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			c.Head.PointAt(c.DUT, az, el)
			sum, n := 0.0, 0
			for r := 0; r < c.Repeats; r++ {
				if err := c.Link.Sweep(c.Probe, c.DUT, slots); err != nil {
					return nil, fmt.Errorf("testbed: RX measurement at (%v, %v): %w", az, el, err)
				}
				if m, ok := c.DUT.Firmware().SweepMeasurement(63); ok {
					sum += m.SNR
					n++
				}
			}
			if n > 0 {
				p.Set(ai, ei, sum/float64(n))
			}
		}
	}
	p.RemoveOutliers(c.OutlierWindow, c.OutlierThreshDB)
	p.FillGaps(c.GapFloorDB)
	return p, nil
}

// MeasureAllPatterns runs the full campaign: 34 transmit sectors plus the
// receive sector, the 35 patterns of the paper's Figures 5 and 6.
func (c *Campaign) MeasureAllPatterns(ctx context.Context, grid *geom.Grid) (*pattern.Set, error) {
	set, err := c.MeasureTXPatterns(ctx, grid)
	if err != nil {
		return nil, err
	}
	rx, err := c.MeasureRXPattern(ctx, grid)
	if err != nil {
		return nil, err
	}
	if err := set.Put(sector.RX, rx); err != nil {
		return nil, err
	}
	return set, nil
}

// NewChamberCampaign wires up the canonical chamber setup: DUT on the
// head at the origin, probe three meters away, both jailbroken so the
// measurements are readable.
func NewChamberCampaign(link *wil.Link, dut, probe *wil.Device, seed int64) *Campaign {
	dutPose, probePose := FacingPoses(3, 1.2)
	dut.SetPose(dutPose)
	probe.SetPose(probePose)
	return &Campaign{
		Link:  link,
		DUT:   dut,
		Probe: probe,
		Head:  NewRotationHead(stats.NewRNG(seed).Split("head")),
	}
}
