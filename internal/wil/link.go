package wil

import (
	"fmt"
	"math"
	"time"

	"talon/internal/antenna"
	"talon/internal/channel"
	"talon/internal/dot11ad"
	"talon/internal/fault"
	"talon/internal/radio"
	"talon/internal/sector"
)

// Link couples two devices through an environment and runs the IEEE
// 802.11ad sector-level sweep (SLS) between them, frame by frame: every
// frame is serialized, propagated through the channel with the sector
// patterns in effect, subjected to the receiver's measurement model and
// decoded again.
type Link struct {
	Env    *channel.Environment
	Budget radio.Budget
	A, B   *Device

	sniffers []*Sniffer
	clock    time.Duration

	// injector is the installed impairment layer (nil = unimpaired);
	// frameSeq numbers the frames put on the air for its FrameEvents.
	injector fault.Injector
	frameSeq uint64

	// geo is the geometry of the transmission in progress, truth the last
	// GroundTruth; raw and frame are Sweep's serialize buffer and decoded
	// frame, reused across slots and sweeps.
	geo   radio.Geometry
	truth GroundTruth
	raw   []byte
	frame dot11ad.Frame

	// snrs is the true-SNR table of geo, indexed by transmit sector. An
	// entry is valid while its gen equals snrGen, which resolveFrames
	// bumps when the geometry, the transmit codebook, the receiver's model
	// or the budget differs from the ones the table was filled for
	// (snrCB, snrModel, snrBudget).
	snrs      [256]frameSNR
	snrGen    uint64
	snrCB     *antenna.Codebook
	snrModel  radio.MeasurementModel
	snrBudget radio.Budget
}

// frameSNR is one transmit sector's entry in the link's true-SNR table:
// the noiseless SNR over the delivery geometry and the receiver model's
// terms at it, everything a frame's measurement needs besides its draws.
type frameSNR struct {
	gen   uint64
	snr   float64
	terms radio.Terms
}

// resolve computes g for transmissions from tx to rx, which receives on
// its quasi-omni sector, and reports whether g was already resolved for
// bit-identical inputs (radio.Geometry.Resolve).
func (l *Link) resolve(g *radio.Geometry, tx, rx *Device) bool {
	rxW, _ := rx.codebook.Weights(sector.RX)
	return g.Resolve(l.Env, tx.pose, rx.pose, tx.array, rx.array, rxW)
}

// resolveFrames resolves the delivery geometry from tx to rx. The
// true-SNR table survives only when every input of its entries is
// unchanged: the traced paths, both arrays and the receive weights (the
// geometry compares these), the transmit codebook, the receiver's model
// and the budget. The environment is not compared by pointer, since its
// fields are edited in place; its effect is in the traced paths.
func (l *Link) resolveFrames(tx, rx *Device) {
	same := l.resolve(&l.geo, tx, rx)
	if !same || tx.codebook != l.snrCB || rx.model != l.snrModel || l.Budget != l.snrBudget {
		l.snrGen++
		l.snrCB, l.snrModel, l.snrBudget = tx.codebook, rx.model, l.Budget
	}
}

// trueSNR returns transmit sector id's entry in the true-SNR table,
// filling it from weights w on the sector's first frame since the table
// was cleared.
func (l *Link) trueSNR(id sector.ID, w antenna.Weights) *frameSNR {
	e := &l.snrs[id]
	if e.gen != l.snrGen {
		e.snr = l.geo.SNR(w, l.Budget)
		e.terms = l.snrModel.Terms(e.snr)
		e.gen = l.snrGen
	}
	return e
}

// GroundTruth is the noiseless SNR of every transmit sector between two
// posed devices — ground truth for evaluation, not visible to the
// protocol — with the rays traced once for all queries.
type GroundTruth struct {
	geo    radio.Geometry
	cb     *antenna.Codebook
	budget radio.Budget
}

// SNR returns the noiseless SNR of transmit sector id, or -Inf for a
// sector absent from the transmitter's codebook.
func (t *GroundTruth) SNR(id sector.ID) float64 {
	w, ok := t.cb.Weights(id)
	if !ok {
		return math.Inf(-1)
	}
	return t.geo.SNR(w, t.budget)
}

// GroundTruth resolves the ground truth from tx to rx at their current
// poses. The result belongs to l and stays valid, whatever frames are
// sent, until the next GroundTruth call on l.
func (l *Link) GroundTruth(tx, rx *Device) *GroundTruth {
	l.resolve(&l.truth.geo, tx, rx)
	l.truth.cb, l.truth.budget = tx.codebook, l.Budget
	return &l.truth
}

// NewLink connects a and b in env with the default budget.
func NewLink(env *channel.Environment, a, b *Device) *Link {
	return &Link{Env: env, Budget: radio.DefaultBudget(), A: a, B: b}
}

// Now returns the link's virtual clock: airtime accumulated by every
// transmission so far.
func (l *Link) Now() time.Duration { return l.clock }

// Wait advances the virtual clock without transmitting — the backoff
// pause of a resilient trainer between retry attempts. Negative
// durations are ignored.
func (l *Link) Wait(d time.Duration) {
	if d > 0 {
		l.clock += d
	}
}

// SetInjector installs inj as the link's fault injector and mirrors it
// into both devices' firmware, so frame, measurement, record and WMI
// impairments all draw from the same layer. nil clears. The injector
// carries per-link state; do not share one across links.
func (l *Link) SetInjector(inj fault.Injector) {
	l.injector = inj
	if l.A != nil {
		l.A.Firmware().SetInjector(inj)
	}
	if l.B != nil {
		l.B.Firmware().SetInjector(inj)
	}
}

// Injector returns the installed fault injector (nil when unimpaired).
func (l *Link) Injector() fault.Injector { return l.injector }

// frameEvent assembles the injector's view of one delivery attempt.
func (l *Link) frameEvent(tx, rx string, txSector sector.ID, seq uint64) fault.FrameEvent {
	return fault.FrameEvent{TX: tx, RX: rx, Sector: txSector, Time: l.clock, Seq: seq}
}

// transmit advances the virtual clock by the frame's airtime, offers the
// transmission to every attached sniffer and returns the frame's sequence
// number for injector events.
func (l *Link) transmit(tx *Device, txSector sector.ID, raw []byte, airtime time.Duration) uint64 {
	metFramesInjected.Inc()
	seq := l.frameSeq
	l.frameSeq++
	l.clock += airtime
	if len(l.sniffers) == 0 {
		return seq
	}
	w, ok := tx.codebook.Weights(txSector)
	if !ok {
		// An unknown transmit sector radiates nothing; the sniffers'
		// capture is lost.
		metFramesDropped.Inc()
		return seq
	}
	for _, s := range l.sniffers {
		if s.dev == tx {
			continue // half duplex: a device cannot capture itself
		}
		ev := l.frameEvent(tx.Name(), s.dev.Name(), txSector, seq)
		if fault.ApplyFrame(l.injector, ev) {
			continue
		}
		l.resolve(&s.geo, tx, s.dev)
		snr := s.geo.SNR(w, l.Budget)
		meas, ok := s.dev.Model().Observe(snr, s.dev.MeasRNG())
		if !ok {
			continue
		}
		frame, err := dot11ad.DecodeFrame(raw)
		if err != nil {
			continue
		}
		meas = fault.ApplyMeasurement(l.injector, ev, meas)
		fault.ApplyFrameCorruption(l.injector, ev, frame)
		s.captures = append(s.captures, Capture{
			Time:  l.clock,
			Raw:   append([]byte(nil), raw...),
			Frame: frame,
			Meas:  meas,
		})
	}
	return seq
}

// Deliver transmits raw from tx on txSector and attempts reception at rx
// on its quasi-omni sector. It returns the decoded frame and measurement
// when the receiver decodes the frame. Attached sniffers observe the
// transmission either way.
func (l *Link) Deliver(tx, rx *Device, txSector sector.ID, raw []byte) (*dot11ad.Frame, radio.Measurement, bool) {
	l.resolveFrames(tx, rx)
	frame := new(dot11ad.Frame)
	meas, ok := l.send(tx, rx, txSector, raw, frame)
	if !ok {
		return nil, radio.Measurement{}, false
	}
	return frame, meas, true
}

// send is Deliver over the already resolved geometry of tx and rx,
// decoding into frame.
func (l *Link) send(tx, rx *Device, txSector sector.ID, raw []byte, frame *dot11ad.Frame) (radio.Measurement, bool) {
	seq := l.transmit(tx, txSector, raw, dot11ad.SSWFrameTime)
	meas, ok := l.deliver(tx, rx, txSector, raw, seq, frame)
	if ok {
		metFramesDelivered.Inc()
	} else {
		metFramesDropped.Inc()
	}
	return meas, ok
}

func (l *Link) deliver(tx, rx *Device, txSector sector.ID, raw []byte, seq uint64, frame *dot11ad.Frame) (radio.Measurement, bool) {
	w, ok := tx.codebook.Weights(txSector)
	if !ok {
		return radio.Measurement{}, false
	}
	ev := l.frameEvent(tx.Name(), rx.Name(), txSector, seq)
	if fault.ApplyFrame(l.injector, ev) {
		return radio.Measurement{}, false
	}
	e := l.trueSNR(txSector, w)
	meas, ok := l.snrModel.ObserveTerms(e.snr, e.terms, rx.MeasRNG())
	if !ok {
		return radio.Measurement{}, false
	}
	if err := frame.UnmarshalBinary(raw); err != nil {
		return radio.Measurement{}, false
	}
	meas = fault.ApplyMeasurement(l.injector, ev, meas)
	fault.ApplyFrameCorruption(l.injector, ev, frame)
	return meas, true
}

// TransmitBeaconBurst sends ap's DMG beacon burst (the Table 1 beacon
// schedule) to the broadcast address. Receivers are the attached
// sniffers; the peer's firmware does not process beacons in this model.
func (l *Link) TransmitBeaconBurst(ap *Device) error {
	broadcast := dot11ad.MACAddr{0xff, 0xff, 0xff, 0xff, 0xff, 0xff}
	for _, slot := range dot11ad.BeaconSchedule() {
		if !slot.Used {
			continue
		}
		frame := &dot11ad.Frame{
			Type:             dot11ad.TypeDMGBeacon,
			RA:               broadcast,
			TA:               ap.MAC(),
			SSW:              dot11ad.SSWField{CDOWN: slot.CDOWN, SectorID: slot.Sector},
			BeaconIntervalTU: 100,
		}
		raw, err := frame.Serialize()
		if err != nil {
			return fmt.Errorf("wil: beacon frame: %w", err)
		}
		l.transmit(ap, slot.Sector, raw, dot11ad.SSWFrameTime)
	}
	return nil
}

// SLSResult summarizes one mutual sector-level sweep.
type SLSResult struct {
	// InitiatorTX / ResponderTX are the transmit sectors each side ends
	// up with (from the feedback they decoded). OK flags report whether
	// the corresponding feedback arrived.
	InitiatorTX   sector.ID
	InitiatorTXOK bool
	ResponderTX   sector.ID
	ResponderTXOK bool
	// AtResponder holds the responder's measurements of the initiator's
	// probed sectors; AtInitiator vice versa.
	AtResponder map[sector.ID]radio.Measurement
	AtInitiator map[sector.ID]radio.Measurement
	// FramesSent and FramesDelivered count SSW frames of both bursts.
	FramesSent      int
	FramesDelivered int
	// FeedbackDelivered and AckDelivered track the closing handshake.
	FeedbackDelivered bool
	AckDelivered      bool
	// Duration is the airtime of the whole training.
	Duration time.Duration
}

// RunSLS performs a mutual transmit-sector training: the initiator sweep
// (ISS) over initSlots, the responder sweep (RSS) over respSlots carrying
// the responder's feedback, then the SSW-Feedback and SSW-Ack exchange.
// Slots usually come from dot11ad.SweepSchedule (stock full sweep) or
// dot11ad.SubSweepSchedule (compressive probing subset).
func (l *Link) RunSLS(init, resp *Device, initSlots, respSlots []dot11ad.BurstSlot) (*SLSResult, error) {
	res := &SLSResult{}

	// --- Initiator sector sweep ---
	resp.Firmware().BeginRXSweep()
	for _, slot := range initSlots {
		if !slot.Used {
			continue
		}
		res.FramesSent++
		metProbeSlots.Inc()
		frame := dot11ad.NewSSWFrame(resp.MAC(), init.MAC(), dot11ad.DirectionInitiator, slot.CDOWN, slot.Sector, dot11ad.SSWFeedbackField{})
		raw, err := frame.Serialize()
		if err != nil {
			return nil, fmt.Errorf("wil: ISS frame: %w", err)
		}
		if got, meas, ok := l.Deliver(init, resp, slot.Sector, raw); ok {
			res.FramesDelivered++
			resp.Firmware().RecordSSW(got.SSW.SectorID, got.SSW.CDOWN, meas)
		}
	}

	// --- Responder sector sweep, carrying feedback for the initiator ---
	feedbackForInit, haveFeedback := resp.Firmware().FeedbackSector()
	respBestSNR := math.Inf(-1)
	if m, ok := resp.Firmware().SweepMeasurement(feedbackForInit); ok {
		respBestSNR = m.SNR
	}
	init.Firmware().BeginRXSweep()
	for _, slot := range respSlots {
		if !slot.Used {
			continue
		}
		res.FramesSent++
		metProbeSlots.Inc()
		fb := dot11ad.SSWFeedbackField{}
		if haveFeedback {
			fb.SectorSelect = feedbackForInit
			fb.SNRReport = dot11ad.EncodeSNR(respBestSNR)
		}
		frame := dot11ad.NewSSWFrame(init.MAC(), resp.MAC(), dot11ad.DirectionResponder, slot.CDOWN, slot.Sector, fb)
		raw, err := frame.Serialize()
		if err != nil {
			return nil, fmt.Errorf("wil: RSS frame: %w", err)
		}
		if got, meas, ok := l.Deliver(resp, init, slot.Sector, raw); ok {
			res.FramesDelivered++
			init.Firmware().RecordSSW(got.SSW.SectorID, got.SSW.CDOWN, meas)
			if haveFeedback {
				res.InitiatorTX = got.Feedback.SectorSelect
				res.InitiatorTXOK = true
			}
		}
	}

	// --- SSW Feedback: initiator tells the responder its sector ---
	feedbackForResp, haveRespFeedback := init.Firmware().FeedbackSector()
	fbTxSector := sector.ID(63) // fallback before any feedback is known
	if res.InitiatorTXOK {
		fbTxSector = res.InitiatorTX
	}
	if haveRespFeedback {
		fbFrame := &dot11ad.Frame{
			Type: dot11ad.TypeSSWFeedback,
			RA:   resp.MAC(),
			TA:   init.MAC(),
			Feedback: dot11ad.SSWFeedbackField{
				SectorSelect: feedbackForResp,
				SNRReport:    dot11ad.EncodeSNR(bestSNROf(init, feedbackForResp)),
			},
		}
		raw, err := fbFrame.Serialize()
		if err != nil {
			return nil, fmt.Errorf("wil: feedback frame: %w", err)
		}
		if got, _, ok := l.Deliver(init, resp, fbTxSector, raw); ok {
			res.FeedbackDelivered = true
			res.ResponderTX = got.Feedback.SectorSelect
			res.ResponderTXOK = true

			// --- SSW Ack: responder acknowledges on its new sector ---
			ack := &dot11ad.Frame{
				Type:     dot11ad.TypeSSWAck,
				RA:       init.MAC(),
				TA:       resp.MAC(),
				Feedback: got.Feedback,
			}
			rawAck, err := ack.Serialize()
			if err != nil {
				return nil, fmt.Errorf("wil: ack frame: %w", err)
			}
			if _, _, ok := l.Deliver(resp, init, res.ResponderTX, rawAck); ok {
				res.AckDelivered = true
			}
		}
	}

	res.AtResponder = resp.Firmware().SweepMeasurements()
	res.AtInitiator = init.Firmware().SweepMeasurements()
	// Airtime: both bursts plus the handshake overhead.
	probes := len(dot11ad.UsedSectors(initSlots)) + len(dot11ad.UsedSectors(respSlots))
	res.Duration = time.Duration(probes)*dot11ad.SSWFrameTime + dot11ad.TrainingOverhead
	return res, nil
}

func bestSNROf(d *Device, id sector.ID) float64 {
	if m, ok := d.Firmware().SweepMeasurement(id); ok {
		return m.SNR
	}
	return math.Inf(-1)
}

// RunTXSS performs a one-directional transmit sector sweep from tx to rx
// over slots and returns the receiver's measurements keyed by sector.
func (l *Link) RunTXSS(tx, rx *Device, slots []dot11ad.BurstSlot) (map[sector.ID]radio.Measurement, error) {
	if err := l.Sweep(tx, rx, slots); err != nil {
		return nil, err
	}
	return rx.Firmware().SweepMeasurements(), nil
}

// Sweep is RunTXSS leaving the measurements in rx's firmware
// (Firmware.SweepMeasurement) instead of copying them out. Neither device
// moves during a sweep, so the geometry is resolved once for all slots,
// and a repeated sweep at an unchanged geometry reads every true SNR from
// the link's table; the frames, their order, the measurement draws, the
// injector hooks and the sniffers are Deliver's, slot by slot.
func (l *Link) Sweep(tx, rx *Device, slots []dot11ad.BurstSlot) error {
	rx.Firmware().BeginRXSweep()
	l.resolveFrames(tx, rx)
	for _, slot := range slots {
		if !slot.Used {
			continue
		}
		metProbeSlots.Inc()
		frame := dot11ad.NewSSWFrame(rx.MAC(), tx.MAC(), dot11ad.DirectionInitiator, slot.CDOWN, slot.Sector, dot11ad.SSWFeedbackField{})
		raw, err := frame.AppendBinary(l.raw[:0])
		if err != nil {
			return err
		}
		l.raw = raw
		if meas, ok := l.send(tx, rx, slot.Sector, raw, &l.frame); ok {
			rx.Firmware().RecordSSW(l.frame.SSW.SectorID, l.frame.SSW.CDOWN, meas)
		}
	}
	return nil
}
