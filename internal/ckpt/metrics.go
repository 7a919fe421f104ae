package ckpt

import (
	"sync/atomic"
	"time"

	"drms/internal/obs"
)

// Checkpoint/restart metrics (drms_ckpt_*): the paper's Tables 3-5
// quantities made scrapeable. Latency and size are observed on rank 0,
// whose Stats cover the full checkpoint in DRMS mode (the one segment
// plus every array's stream bytes); in SPMD mode they cover rank 0's
// own file, one representative of the per-task files.
var (
	ckptWrites = obs.GetCounter("drms_ckpt_writes_total",
		"Committed checkpoints (DRMS and SPMD).")
	ckptWriteFailures = obs.GetCounter("drms_ckpt_write_failures_total",
		"Checkpoint attempts that returned an error before commit.")
	ckptWriteSeconds = obs.GetHistogram("drms_ckpt_write_seconds",
		"Checkpoint latency, rank 0 wall time per committed checkpoint.", obs.LatencyBuckets)
	ckptWriteBytes = obs.GetCounter("drms_ckpt_write_bytes_total",
		"Bytes of committed checkpoint state (rank 0 view).")
	ckptLastWriteBytes = obs.GetGauge("drms_ckpt_last_write_bytes",
		"Size of the most recently committed checkpoint (bytes per generation).")
	ckptReads = obs.GetCounter("drms_ckpt_reads_total",
		"Completed restores.")
	ckptReadFailures = obs.GetCounter("drms_ckpt_read_failures_total",
		"Restores that returned an error (including integrity failures).")
	ckptReadSeconds = obs.GetHistogram("drms_ckpt_read_seconds",
		"Restore latency, rank 0 wall time per completed restore.", obs.LatencyBuckets)
	ckptVerifyFailures = obs.GetCounter("drms_ckpt_verify_failures_total",
		"Integrity-check failures (every *CorruptError constructed).")
	ckptQuarantines = obs.GetCounter("drms_ckpt_quarantines_total",
		"Checkpoint generations quarantined (renamed aside as corrupt).")
	ckptRotationScans = obs.GetCounter("drms_ckpt_rotation_scans_total",
		"Storage listings made by rotation queries (each costs O(files in the store)).")
	ckptPartialChecks = obs.GetCounter("drms_ckpt_partial_checks_total",
		"Partial-restore plans judged on storage: once per subset restore (at rank 0) and per PartialEligible call.")
	ckptStoredBytes = obs.GetCounter("drms_ckpt_stored_bytes_total",
		"Bytes of checkpoint state actually written to storage per commit, summed over tasks (after delta elision and compression).")
	ckptAnchorWrites = obs.GetCounter("drms_ckpt_anchor_writes_total",
		"Committed chained generations that are self-contained anchors (no dependencies).")
	ckptDeltaWrites = obs.GetCounter("drms_ckpt_delta_writes_total",
		"Committed chained generations that reference earlier generations for unchanged pieces.")
	ckptPiecesReferenced = obs.GetCounter("drms_ckpt_pieces_referenced_total",
		"Pieces carried into a delta generation by back-pointer instead of being rewritten.")
	ckptCodecInBytes = obs.GetCounter("drms_ckpt_codec_in_bytes_total",
		"Logical piece bytes fed to the flate encoder.")
	ckptCodecOutBytes = obs.GetCounter("drms_ckpt_codec_out_bytes_total",
		"Encoded piece bytes the flate encoder produced (before the raw fallback for expanding pieces).")
	ckptCodecSeconds = obs.GetHistogram("drms_ckpt_codec_seconds",
		"Wall time of individual piece encodes.", obs.LatencyBuckets)
	ckptSquashes = obs.GetCounter("drms_ckpt_squashes_total",
		"Delta chains folded into fresh self-contained anchors (Squash).")
	ckptTierRestoreMem = obs.GetCounter(`drms_ckpt_tier_restore_total{tier="mem"}`,
		"Completed restores by the tier that served them.")
	ckptTierRestorePFS = obs.GetCounter(`drms_ckpt_tier_restore_total{tier="pfs"}`,
		"Completed restores by the tier that served them.")
)

// lastCommitNano is the wall time of the most recent checkpoint commit
// in this process (rank 0's meta write), unix nanoseconds; 0 = none.
var lastCommitNano atomic.Int64

func markCommit() { lastCommitNano.Store(time.Now().UnixNano()) }

// LastCommitTime returns when this process last committed a checkpoint
// (zero time if it never has). The recovery supervisor uses it to stamp
// the age of a restart point — the work-lost bound — into the registry.
func LastCommitTime() time.Time {
	n := lastCommitNano.Load()
	if n == 0 {
		return time.Time{}
	}
	return time.Unix(0, n)
}

func init() {
	obs.GaugeFunc("drms_ckpt_last_commit_age_seconds",
		"Seconds since the last checkpoint commit (generation age); 0 until the first commit.",
		func() float64 {
			t := LastCommitTime()
			if t.IsZero() {
				return 0
			}
			return time.Since(t).Seconds()
		})
}

// observeWrite records one checkpoint attempt's outcome on rank 0.
// Stored bytes are the exception: each task's Stats cover only the
// pieces that task wrote, so every rank contributes its share (in-
// process tasks share the registry, making the counter the cluster sum).
func observeWrite(rank int, st Stats, start time.Time, err error) {
	if err == nil {
		ckptStoredBytes.Add(uint64(st.SegmentBytes + st.StoredBytes))
	}
	if rank != 0 {
		return
	}
	if err != nil {
		ckptWriteFailures.Inc()
		return
	}
	ckptWrites.Inc()
	ckptWriteSeconds.ObserveSince(start)
	ckptWriteBytes.Add(uint64(st.Total()))
	ckptLastWriteBytes.Set(float64(st.Total()))
	markCommit()
}

// observeRead records one restore attempt's outcome on rank 0,
// classifying completed restores by serving tier: "mem" only when every
// restored byte came from peer memory (the agreed cluster totals in st),
// "pfs" when any byte needed the file system.
func observeRead(rank int, st Stats, start time.Time, err error) {
	if rank != 0 {
		return
	}
	if err != nil {
		ckptReadFailures.Inc()
		return
	}
	ckptReads.Inc()
	ckptReadSeconds.ObserveSince(start)
	if st.TierMemBytes > 0 && st.TierPFSBytes == 0 {
		ckptTierRestoreMem.Inc()
	} else {
		ckptTierRestorePFS.Inc()
	}
}
