package eval

import "talon/internal/obs"

// Evaluation-campaign metrics (see README, "Observability"). Trial counts
// tick once per trial, in batches where the trials run as one batch.
var (
	metTrials = obs.NewCounter("eval_trials_total",
		"evaluation trials completed across all campaigns")
	metBatchTrials = obs.NewCounter("eval_batch_trials_total",
		"trace-evaluation trials run through the batched estimation path")
)
