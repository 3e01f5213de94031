package fleet

import "talon/internal/obs"

// Fleet-service metrics on the default registry. Population and event
// counters are updated by the shard workers; the transition counters
// count every legal state-machine edge taken, one counter per target
// state so dashboards can watch the lifecycle mix.
var (
	metStations = obs.NewGauge("fleet_stations",
		"stations currently managed across all shards")
	metArrivals = obs.NewCounter("fleet_arrivals_total",
		"station arrivals admitted")
	metDepartures = obs.NewCounter("fleet_departures_total",
		"station departures (churn)")
	metMobilityEvents = obs.NewCounter("fleet_mobility_events_total",
		"mobility (drift-velocity change) events applied")
	metBlockages = obs.NewCounter("fleet_blockages_total",
		"blockage events applied")
	metFaultEvents = obs.NewCounter("fleet_fault_events_total",
		"probe-loss fault events applied")
	metQueueDrops = obs.NewCounter("fleet_queue_drops_total",
		"events dropped because a shard's bounded queue was full")

	metEpochs = obs.NewCounter("fleet_epochs_total",
		"epochs stepped")
	metTrainings = obs.NewCounter("fleet_trainings_total",
		"training rounds served through the batch funnel")
	metRetrains = obs.NewCounter("fleet_retrains_total",
		"non-first training rounds served")
	metSelectFailures = obs.NewCounter("fleet_select_failures_total",
		"training rounds whose batched selection failed")
	metFallbacks = obs.NewCounter("fleet_fallbacks_total",
		"failed rounds that fell back to the probed-sector argmax")
	metPending = obs.NewGauge("fleet_pending_trainings",
		"training requests queued for the next batch")
	metBatchItems = obs.NewCounter("fleet_batch_items_total",
		"probe vectors submitted to core.SelectSectorBatch")

	metToTraining = obs.NewCounter("fleet_to_training_total",
		"state transitions into training")
	metToTracking = obs.NewCounter("fleet_to_tracking_total",
		"state transitions into tracking")
	metToDegraded = obs.NewCounter("fleet_to_degraded_total",
		"state transitions into degraded")
	metToRetraining = obs.NewCounter("fleet_to_retraining_total",
		"state transitions into retraining")

	metStepSeconds = obs.NewHistogram("fleet_step_seconds",
		"wall time per fleet epoch step", nil)
	metScanSeconds = obs.NewHistogram("fleet_scan_seconds",
		"wall time per fleet epoch step spent in the shard scan and tally merge", nil)
	metScanVisits = obs.NewCounter("fleet_scan_visits_total",
		"stations the epoch scan visited (due, evented, impaired or with a deadline firing)")
	metSelectLatency = obs.NewHistogram("fleet_select_latency_virtual_seconds",
		"virtual time from training trigger to applied selection", nil)
)

// noteTransition increments the per-target-state transition counter for
// a legal edge into next.
func noteTransition(next State) {
	switch next {
	case StateTraining:
		metToTraining.Inc()
	case StateTracking:
		metToTracking.Inc()
	case StateDegraded:
		metToDegraded.Inc()
	case StateRetraining:
		metToRetraining.Inc()
	}
}
