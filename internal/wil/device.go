package wil

import (
	"fmt"

	"talon/internal/antenna"
	"talon/internal/channel"
	"talon/internal/dot11ad"
	"talon/internal/radio"
	"talon/internal/sector"
	"talon/internal/stats"
)

// Config describes one simulated Talon AD7200.
type Config struct {
	// Name labels the device in diagnostics.
	Name string
	// MAC is the station address.
	MAC dot11ad.MACAddr
	// Seed freezes the device's hardware imperfections and measurement
	// noise stream. The same seed reproduces the identical unit.
	Seed int64
	// ArrayConfig defaults to antenna.TalonConfig().
	ArrayConfig *antenna.Config
	// Pose places the device in the environment.
	Pose channel.Pose
	// Model defaults to radio.DefaultMeasurementModel().
	Model *radio.MeasurementModel
}

// Device is a simulated Talon AD7200: antenna array with per-unit
// imperfections, the firmware codebook, the (patchable) QCA9500 firmware
// and the driver-side access paths the paper adds.
type Device struct {
	name     string
	mac      dot11ad.MACAddr
	array    *antenna.Array
	codebook *antenna.Codebook
	fw       *Firmware
	pose     channel.Pose
	model    radio.MeasurementModel
	measRNG  *stats.RNG
}

// NewDevice builds a device from cfg.
func NewDevice(cfg Config) (*Device, error) {
	if cfg.Name == "" {
		return nil, fmt.Errorf("wil: device needs a name")
	}
	acfg := antenna.TalonConfig()
	if cfg.ArrayConfig != nil {
		acfg = *cfg.ArrayConfig
	}
	root := stats.NewRNG(cfg.Seed)
	arr, err := antenna.New(acfg, root.Split("array"))
	if err != nil {
		return nil, fmt.Errorf("wil: device %s: %w", cfg.Name, err)
	}
	model := radio.DefaultMeasurementModel()
	if cfg.Model != nil {
		model = *cfg.Model
	}
	return &Device{
		name:     cfg.Name,
		mac:      cfg.MAC,
		array:    arr,
		codebook: antenna.Talon(arr),
		fw:       NewFirmware(),
		pose:     cfg.Pose,
		model:    model,
		measRNG:  root.Split("measurements"),
	}, nil
}

// Name returns the device label.
func (d *Device) Name() string { return d.name }

// MAC returns the station address.
func (d *Device) MAC() dot11ad.MACAddr { return d.mac }

// Array returns the device's antenna array.
func (d *Device) Array() *antenna.Array { return d.array }

// Codebook returns the firmware sector codebook.
func (d *Device) Codebook() *antenna.Codebook { return d.codebook }

// Firmware returns the chip firmware.
func (d *Device) Firmware() *Firmware { return d.fw }

// Pose returns the current placement.
func (d *Device) Pose() channel.Pose { return d.pose }

// SetPose moves or rotates the device.
func (d *Device) SetPose(p channel.Pose) { d.pose = p }

// Model returns the measurement model in effect.
func (d *Device) Model() radio.MeasurementModel { return d.model }

// MeasRNG returns the device's measurement noise stream.
func (d *Device) MeasRNG() *stats.RNG { return d.measRNG }

// Jailbreak applies both firmware patches, turning the stock router into
// the paper's research platform.
func (d *Device) Jailbreak() error {
	if err := d.fw.ApplyPatch(SweepDumpPatch()); err != nil {
		return err
	}
	return d.fw.ApplyPatch(SectorOverridePatch())
}

// ForceSector arms the feedback override with id via WMI.
func (d *Device) ForceSector(id sector.ID) error {
	_, err := d.fw.HandleWMI(WMISetSweepSector, []byte{byte(id)})
	return err
}

// ClearForcedSector disarms the feedback override via WMI.
func (d *Device) ClearForcedSector() error {
	_, err := d.fw.HandleWMI(WMIClearSweepSector, nil)
	return err
}

// SweepDump reads the measurement ring buffer through the driver.
func (d *Device) SweepDump() ([]SweepRecord, error) {
	return d.fw.ReadSweepDump()
}
