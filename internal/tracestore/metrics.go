package tracestore

import "talon/internal/obs"

// Store metrics on the default registry. Counters only — the store sits
// inside the determinism lint scope, so it never reads the wall clock;
// throughput histograms belong to the callers in cmd/.
var (
	metAppends = obs.NewCounter("tracestore_appends_total",
		"records appended to shard writers")
	metShardsOpened = obs.NewCounter("tracestore_shards_opened_total",
		"shard files created by writers")
	metBlocksWritten = obs.NewCounter("tracestore_blocks_written_total",
		"blocks written")
	metBytesWritten = obs.NewCounter("tracestore_bytes_written_total",
		"block bytes written (frames + payloads)")
	metBlocksRead = obs.NewCounter("tracestore_blocks_read_total",
		"blocks decoded by readers")
	metRecordsRead = obs.NewCounter("tracestore_records_read_total",
		"records decoded by readers")
)
