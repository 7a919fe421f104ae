package msg

import (
	"time"

	"drms/internal/obs"
)

// Message-layer metrics (drms_msg_*). Point-to-point counters tick on
// every transport operation; the collective histogram observes each
// primitive collective call (Barrier, Bcast, Gather, Alltoall[Sparse],
// ReduceF64 — composites like Allgather count through their
// constituents). The hot-path cost is one or two atomic adds per
// operation, orders of magnitude below a transport round trip.
var (
	msgSends = obs.GetCounter("drms_msg_sends_total",
		"Point-to-point sends completed.")
	msgSendBytes = obs.GetCounter("drms_msg_send_bytes_total",
		"Payload bytes sent point-to-point.")
	msgRecvs = obs.GetCounter("drms_msg_recvs_total",
		"Point-to-point receives completed.")
	msgRecvBytes = obs.GetCounter("drms_msg_recv_bytes_total",
		"Payload bytes received point-to-point.")
	msgOpErrors = obs.GetCounter("drms_msg_op_errors_total",
		"Transport operations that returned an error (revoked, killed, closed, canceled).")
	msgCollectives = obs.GetCounter("drms_msg_collectives_total",
		"Primitive collective operations entered.")
	msgCollectiveSeconds = obs.GetHistogram("drms_msg_collective_seconds",
		"Latency of primitive collective operations.", obs.LatencyBuckets)
	msgFaultsInjected = obs.GetCounter("drms_msg_faults_injected_total",
		"Deterministic fault injections fired (FaultTransport kills).")
	msgShrinks = obs.GetCounter("drms_msg_shrinks_total",
		"Communicator shrinks installed (replacement epochs, ULFM-style).")
	msgResizes = obs.GetCounter("drms_msg_resizes_total",
		"Communicator resize epochs installed (task count changed in flight).")
)

// observeCollective stamps one primitive collective's latency; used as
// `defer observeCollective(time.Now())` at each entry point.
func observeCollective(start time.Time) {
	msgCollectives.Inc()
	msgCollectiveSeconds.ObserveSince(start)
}
