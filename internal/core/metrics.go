package core

import "talon/internal/obs"

// Process-wide metrics of the estimation pipeline (see README,
// "Observability"). All updates are single atomic operations, far below
// the grid search itself; the library reads no clock per estimate
// (callers time their own calls, and a batch observes
// core_batch_seconds).
var (
	metEstimates = obs.NewCounter("core_estimates_total",
		"angle-of-arrival estimates run on the correlation engine")
	metEstimatesSerial = obs.NewCounter("core_estimates_serial_total",
		"estimates run on the serial reference path")
	metDictBuildSeconds = obs.NewHistogram("core_dict_build_seconds",
		"correlation-dictionary precomputation time per estimator", nil)
	metScratchGets = obs.NewCounter("core_scratch_gets_total",
		"scratch free-list fetches (per-item estimate scratch, one per estimate call or batch chunk)")
	metScratchMisses = obs.NewCounter("core_scratch_misses_total",
		"scratch free-list misses that allocated fresh scratch")
	metSelectEngine = obs.NewCounter("core_select_engine_total",
		"SelectSector pipelines run on the engine path")
	metSelectSerial = obs.NewCounter("core_select_serial_total",
		"SelectSector pipelines run on the serial reference path")
	metSelectFallback = obs.NewCounter("core_select_fallback_total",
		"selections that fell back to the probed-sector argmax")
	metDegenerate = obs.NewCounter("core_surface_degenerate_total",
		"estimates aborted on a degenerate correlation surface")
	metBatches = obs.NewCounter("core_batches_total",
		"SelectSectorBatch calls")
	metBatchEstimates = obs.NewCounter("core_batch_estimates_total",
		"selections run through the batched estimation path")
	metBatchSeconds = obs.NewHistogram("core_batch_seconds",
		"wall time of one SelectSectorBatch call", obs.LatencyBuckets)
	metBatchSize = obs.NewGauge("core_batch_size",
		"item count of the most recent batch")
	metBatchOccupancy = obs.NewFloatGauge("core_batch_occupancy",
		"worker-slot occupancy of the most recent batch (items / workers x rounds)")
	metQuantEstimates = obs.NewCounter("core_quant_estimates_total",
		"estimates served by the quantized int16 kernel")
	metQuantFallbacks = obs.NewCounter("core_quant_fallbacks_total",
		"quantized estimates that fell back to the exhaustive quantized scan")
	metQuantDictBytes = obs.NewGauge("core_quant_dict_bytes",
		"size of the quantized dense+coarse dictionaries of the most recent engine build")
	metQuantTilePoints = obs.NewGauge("core_quant_tile_points",
		"grid points per L1 dictionary tile of the most recent engine build")
	metQuantBatchTiles = obs.NewCounter("core_quant_batch_tiles_total",
		"coarse dictionary tiles swept by the batch-major quantized pass")
	metQuantBlocks = obs.NewCounter("core_quant_blocks_total",
		"eight-lane blocks scored by the quantized kernel (coarse tiles, refinement and exhaustive scans)")
	metQuantLanes = obs.NewCounter("core_quant_lanes_total",
		"block lanes whose score a quantized search read (the grid points it wanted)")
	metWarmHints = obs.NewCounter("core_warm_hints_total",
		"quantized estimates offered a hint cell")
	metWarmHits = obs.NewCounter("core_warm_hits_total",
		"hinted estimates whose winner lies outside every top-K refinement window (the hint decided the cell)")
)

// core_warm_fallbacks_total counted hinted estimates that failed the
// guards of the separate warm-window search, which no longer exists, so
// it stays at zero. Like core_hier_fallbacks_total below, it stays
// registered only because the repository benchmark's counter
// resolution (benchmark/harness.go, resolveCounters) fails a run when
// the name is missing.
var _ = obs.NewCounter("core_warm_fallbacks_total",
	"always zero: the separate warm-window search was removed (hints are refinement windows)")

// core_hier_fallbacks_total counted fallbacks of the float64
// hierarchical search, which no longer exists, so it stays at zero;
// core_quant_fallbacks_total counts the live kernel's fallbacks. It
// stays registered only because the repository benchmark's counter
// resolution (benchmark/harness.go, resolveCounters) fails a run when
// the name is missing. Drop it together with that lookup.
var _ = obs.NewCounter("core_hier_fallbacks_total",
	"always zero: the float64 hierarchical search was removed (see core_quant_fallbacks_total)")
