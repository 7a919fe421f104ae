package drms

import "drms/internal/obs"

// Runtime-system metrics (drms_rts_*): the SOP-level view, one tier
// above ckpt's per-file timings. Observed on rank 0 only, so one
// collective operation counts once.
var (
	rtsCheckpoints = obs.GetCounter("drms_rts_checkpoints_total",
		"SOP checkpoints committed (every checkpointing SOP entry point).")
	rtsRestores = obs.GetCounter("drms_rts_restores_total",
		"SOP restores completed (restarted incarnations reaching Restored).")
	rtsPartialRestores = obs.GetCounter("drms_rts_partial_restores_total",
		"Localized-recovery rollbacks completed (survivors parked, only lost ranks restored).")
	rtsLastReconfigDelta = obs.GetGauge("drms_rts_last_reconfig_delta",
		"Task-count delta of the last restore: current tasks - checkpointing tasks.")
	rtsResizes = obs.GetCounter("drms_rts_resizes_total",
		"In-flight resize SOPs completed (task count changed without a restart).")
	rtsPoolTasks = obs.GetGauge("drms_rts_pool_tasks",
		"Task count of the most recent SOP commit or restore — re-stamped at "+
			"every SOP, so it tracks in-flight resizes that change the task "+
			"count within one incarnation.")
)
