package coord

import (
	"fmt"
	"strings"
	"time"

	"drms/internal/obs"
)

// Control-plane metrics (drms_coord_*). Gauges reflect the most recent
// RC update in this process: a solo drmsd runs exactly one RC, so they
// are the daemon's pool and application state. `drmsd -shards N` runs N
// in one process, and so do tests: there the unlabeled gauges are
// last-writer-wins (read the {shard="k"} pair per coordinator instead),
// and tests assert counter deltas.
var (
	coordTCsLive = obs.GetGauge("drms_coord_tcs_live",
		"Task coordinators with a live registration (the processor pool size).")
	coordAppsRunning = obs.GetGauge("drms_coord_apps_running",
		"Applications currently in the running state.")
	coordTCFailures = obs.GetCounter("drms_coord_tc_failures_total",
		"Processor failures detected (heartbeat timeout or connection loss).")
	coordRecoveryAttempts = obs.GetCounter("drms_coord_recovery_attempts_total",
		"Restart attempts charged against recovery budgets.")
	coordRecoveries = obs.GetCounter("drms_coord_recoveries_total",
		"Successful autonomous recoveries (a new incarnation running).")
	coordStalls = obs.GetCounter("drms_coord_stalls_total",
		"Supervised applications that exhausted their recovery budget.")
	coordRecoverySeconds = obs.GetHistogram("drms_coord_recovery_seconds",
		"Failure-to-recovery latency (TTR, Tables 3-5).", obs.LatencyBuckets)
	coordLastTTR = obs.GetGauge("drms_coord_last_ttr_seconds",
		"TTR of the most recent successful recovery.")
	coordRestartGen = obs.GetGauge("drms_coord_restart_generation",
		"Checkpoint generation the last recovery restarted from (-1 = scratch).")
	coordRestartGenAge = obs.GetGauge("drms_coord_restart_gen_age_seconds",
		"Age of the restart point at the last recovery: seconds from its commit to the relaunch.")
	coordPartialRecoveries = obs.GetCounter("drms_coord_partial_recoveries_total",
		"Localized recoveries completed (survivors parked in place, only lost ranks restored).")
	coordPartialFallbacks = obs.GetCounter("drms_coord_partial_fallbacks_total",
		"Localized recovery attempts that fell back to the full-restart path.")
	coordPartialRecoverySeconds = obs.GetHistogram("drms_coord_partial_recovery_seconds",
		"Failure-to-recovery latency of localized (partial) recoveries.", obs.LatencyBuckets)
	coordLastPartialTTR = obs.GetGauge("drms_coord_last_partial_ttr_seconds",
		"TTR of the most recent localized recovery.")
	coordEventsDropped = obs.GetCounter("drms_coord_events_dropped_total",
		"Control-plane events dropped on slow consumers (non-terminal only; coalesced oldest-first).")
	coordTerminalEventsDropped = obs.GetCounter("drms_coord_terminal_events_dropped_total",
		"Terminal/settle events dropped — must stay 0; delivery of terminal telemetry is guaranteed.")
	coordStaleRejections = obs.GetCounter("drms_coord_stale_handle_rejections_total",
		"Versioned-API mutations rejected because the handle's state version was stale.")
	coordStateSnapshots = obs.GetCounter("drms_coord_state_snapshots_total",
		"Control-plane snapshot generations committed through the state store.")
	coordStateFlushErrors = obs.GetCounter("drms_coord_state_flush_errors_total",
		"Control-plane snapshot flushes that failed (encode or storage); each leaves the state dirty and re-rings the persister.")
	coordStateRestores = obs.GetCounter("drms_coord_state_restores_total",
		"Coordinator restarts that loaded a control-plane snapshot generation.")
	coordReadoptions = obs.GetCounter("drms_coord_readoptions_total",
		"Applications re-adopted alive across a coordinator restart (lease matched; no restart).")
	coordQuotaRejections = obs.GetCounter("drms_coord_quota_rejections_total",
		"Application submissions rejected by per-tenant admission quotas.")
	coordEpochRejections = obs.GetCounter("drms_coord_epoch_rejections_total",
		"TC hellos rejected by lease-epoch reconciliation (epoch below a live same-node registration's).")
	coordResizes = obs.GetCounter("drms_coord_resizes_total",
		"In-flight resizes completed (task count changed within one incarnation, no restart).")
	coordResizeFallbacks = obs.GetCounter("drms_coord_resize_fallbacks_total",
		"In-flight resize attempts that failed; callers fall back to checkpoint/stop/relaunch.")
	coordResizeSeconds = obs.GetHistogram("drms_coord_resize_seconds",
		"Request-to-redistributed latency of in-flight resizes.", obs.LatencyBuckets)
	coordLastResizeTTR = obs.GetGauge("drms_coord_last_resize_ttr_seconds",
		"Latency of the most recent in-flight resize.")
	coordScaleDecisions = obs.GetCounter("drms_coord_scale_decisions_total",
		"Autoscaler policy decisions that initiated a resize.")
	coordScaleDenied = obs.GetCounter("drms_coord_scale_denied_total",
		"Autoscaler grow decisions denied by the fleet-wide processor budget.")
)

// registerAppGauges registers the per-application gauges at launch,
// readoption, and recovery resume. Both read lock-free cells on the
// appState, never rc.mu, so a metrics scrape cannot contend with the
// control plane — and both follow in-flight resizes, which mutate the
// cells without any relaunch-time re-registration (no incarnation bump).
// Relaunching an application name replaces the gauges' closures
// (obs.GaugeFunc re-registration), so the metrics follow the live
// appState.
func registerAppGauges(name string, app *appState) {
	label := strings.NewReplacer(`"`, ``, `\`, ``, "\n", ``).Replace(name)
	// The task count of the current communicator epoch: re-stamped by
	// launch, readoption, AND in-flight resize, so the scraped value
	// reflects the post-resize pool even though the incarnation never
	// changed.
	obs.GaugeFunc(`drms_coord_app_tasks{app="`+label+`"}`,
		"Task count of the application's current communicator epoch (follows in-flight resizes).",
		func() float64 { return float64(app.tasksCell.Load()) })
	// Which tier served the last restore: -1 before any restore, 0 for
	// the parallel file system, 1 for peer memory.
	obs.GaugeFunc(`drms_coord_app_last_restore_source{app="`+label+`"}`,
		"Tier that served the application's last restore: -1 none yet, 0 pfs, 1 peer memory.",
		func() float64 {
			h := app.hcell.Load()
			if h == nil {
				return -1
			}
			src, ok := h.LastRestoreSource()
			if !ok {
				return -1
			}
			if src == "mem" {
				return 1
			}
			return 0
		})
}

// registerSnapshotAgeGauge exposes how stale the coordinator's persisted
// state is: seconds since the last committed control-plane snapshot
// generation (-1 before the first commit). Re-registration on restart
// replaces the closure, so the metric follows the live coordinator.
func registerSnapshotAgeGauge(rc *RC) {
	obs.GaugeFunc("drms_coord_state_snapshot_age_seconds",
		"Seconds since the last committed control-plane snapshot (-1 before the first).",
		func() float64 {
			ns := rc.lastSnap.Load()
			if ns == 0 {
				return -1
			}
			return time.Since(time.Unix(0, ns)).Seconds()
		})
}

// shardGauges returns the per-shard pool and application gauges for one
// member of a sharded fleet. drmsd runs all shards in one process, so
// the fleet's state is scrapeable shard by shard.
func shardGauges(shard int) (tcsLive, apps *obs.Gauge) {
	label := fmt.Sprintf(`{shard="%d"}`, shard)
	return obs.GetGauge("drms_coord_shard_tcs_live"+label,
			"Live task coordinator registrations owned by this shard."),
		obs.GetGauge("drms_coord_shard_apps_running"+label,
			"Applications in the running state on this shard.")
}

// statsLocked refreshes the pool/application gauges. rc.mu must be held.
func (rc *RC) statsLocked() {
	live := 0
	for _, tc := range rc.tcs {
		if tc.alive {
			live++
		}
	}
	coordTCsLive.Set(float64(live))
	running := 0
	for _, app := range rc.apps {
		if app.Status == StatusRunning {
			running++
		}
	}
	coordAppsRunning.Set(float64(running))
	if rc.shardTCsLive != nil {
		rc.shardTCsLive.Set(float64(live))
		rc.shardApps.Set(float64(running))
	}
}
