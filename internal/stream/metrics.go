package stream

import (
	"time"

	"drms/internal/obs"
)

// Streaming metrics (drms_stream_*). Calls are counted per task (every
// task of the communicator enters a collective stream op); pieces and
// piece bytes are counted once each, by the task that performed the
// file I/O. The stall histograms are the pipeline-overlap signal of the
// two-phase strategy: how long round r+1 had to wait on round r's
// in-flight I/O — near zero while file I/O fully overlaps
// redistribution.
var (
	streamWrites = obs.GetCounter("drms_stream_writes_total",
		"Stream write operations completed (per task call).")
	streamReads = obs.GetCounter("drms_stream_reads_total",
		"Stream read operations completed (per task call).")
	streamErrors = obs.GetCounter("drms_stream_errors_total",
		"Stream operations that returned an error.")
	streamWriteSeconds = obs.GetHistogram("drms_stream_write_seconds",
		"Wall time of one task's stream write call.", obs.LatencyBuckets)
	streamReadSeconds = obs.GetHistogram("drms_stream_read_seconds",
		"Wall time of one task's stream read call.", obs.LatencyBuckets)
	streamWriteStall = obs.GetHistogram("drms_stream_write_stall_seconds",
		"Time a write round waited for the previous round's in-flight file write.", obs.LatencyBuckets)
	streamReadStall = obs.GetHistogram("drms_stream_read_stall_seconds",
		"Time a read round waited for its prefetched piece.", obs.LatencyBuckets)
	streamPieces = obs.GetCounter("drms_stream_pieces_total",
		"Pieces moved through file I/O by this process.")
	streamPieceBytes = obs.GetCounter("drms_stream_piece_bytes_total",
		"Bytes of pieces moved through file I/O by this process.")
	streamNetBytes = obs.GetCounter("drms_stream_net_bytes_total",
		"Redistribution bytes sent during two-phase exchanges.")
	streamStoredBytes = obs.GetCounter("drms_stream_stored_bytes_total",
		"Piece bytes actually written to storage (after EncodePiece).")
	streamWriteIOSeconds = obs.GetHistogram("drms_stream_write_io_seconds",
		"Service time of individual piece file writes (the async stage of the pipeline).", obs.LatencyBuckets)
)

// WriteBandwidth returns this process's observed storage write bandwidth
// in bytes/second — stored piece bytes over the summed service time of
// their file writes — and ok=false before any write has been timed. The
// checkpoint layer's codec model reads it to price a byte saved.
func WriteBandwidth() (bps float64, ok bool) {
	sec := streamWriteIOSeconds.Sum()
	if streamWriteIOSeconds.Count() == 0 || sec <= 0 {
		return 0, false
	}
	return float64(streamStoredBytes.Value()) / sec, true
}

func init() {
	// The streaming plan counters are process-wide atomics; export them
	// as reads so the scrape sees the live values.
	obs.CounterFunc("drms_stream_plan_cache_hits_total",
		"Streaming plan cache hits (replayed piece partitions and round distributions).",
		func() float64 { h, _ := PlanCacheStats(); return float64(h) })
	obs.CounterFunc("drms_stream_plan_cache_misses_total",
		"Streaming plan cache misses (plans built from scratch).",
		func() float64 { _, m := PlanCacheStats(); return float64(m) })
}

// observeStream records one stream call's outcome from a defer:
// latency and traffic from the task's Stats.
func observeStream(ops *obs.Counter, seconds *obs.Histogram, start time.Time, st *Stats, err *error) {
	if *err != nil {
		streamErrors.Inc()
		return
	}
	ops.Inc()
	seconds.ObserveSince(start)
	streamNetBytes.Add(uint64(st.NetBytes))
	streamStoredBytes.Add(uint64(st.StoredBytes))
}
