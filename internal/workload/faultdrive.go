package workload

import (
	"fmt"

	"fm/internal/core"
	"fm/internal/myrinet"
	"fm/internal/sim"
)

// Fault support of the FM drive core (fmDrive), which the closed-loop
// and soak drives share. Two things change when a fault plan is
// installed. First, the instant that measures the run is the last
// delivery (max over ranks), not cluster quiescence — fault toggles
// are scheduled events that outlast the traffic, so the quiescence
// instant would measure the plan, not the run. Second, termination:
// the healthy exit condition (all expected messages received, nothing
// outstanding) assumes a reliable network, but a fault can bounce a
// standalone ack back to a rank that has already finished — acks hold
// no window slot, so nothing in that rank's exit condition covers
// them. Every rank therefore stays alive polling until a settle
// horizon past the last fault recovery, by which instant nothing can
// be in flight toward it anymore.

// FaultResult extends Result with the last-delivery instant and the
// resilience counters of an FM drive.
type FaultResult struct {
	Result
	// LastDelivery is the instant the last message reached a handler:
	// what a faulted run measures, where Elapsed is cluster quiescence.
	LastDelivery sim.Duration
	// Stats is every rank's endpoint counters summed: Retransmits,
	// NetBounces, RejectsSent/Received, Duplicates (must stay 0), etc.
	Stats core.Stats
	// Fault is the fabric's fault bookkeeping, merged across shard
	// replicas (each event is counted on exactly one replica).
	Fault myrinet.FaultStats
	// Stranded is the number of bounced frames still parked in the
	// fabric at the end of the run; any plan whose windows all close
	// must end with zero.
	Stranded int
}

// settleQuantum is the poll interval of a rank holding a send until its
// At instant or, finished, waiting out the settle horizon; settleSlack
// is how far past the last fault recovery the run keeps every rank
// alive: enough for a final bounce to travel home, wait out a retry
// backoff, and be resent — several times over, since chained faults
// can bounce one frame more than once.
const (
	settleQuantum = 10 * sim.Microsecond
	settleSlack   = 200 * sim.Microsecond
)

// settleTime computes the instant by which a run under ws has quiesced:
// the last recovery, plus retry/backoff slack. Zero for an empty plan.
func settleTime(ws []myrinet.FaultWindow, retry sim.Duration) sim.Time {
	var last sim.Time
	for _, w := range ws {
		if w.End > last {
			last = w.End
		}
	}
	if last == 0 {
		return 0
	}
	// Routing trusts a recovered component only DetectLag after the
	// wire does, and stranded bounces are released at that detection
	// toggle — the settle horizon starts there.
	return last.Add(myrinet.DetectLag + 8*retry + settleSlack)
}

// mergeCoreStats sums one endpoint's counters into the aggregate.
func mergeCoreStats(dst *core.Stats, s core.Stats) {
	dst.Sent += s.Sent
	dst.Delivered += s.Delivered
	dst.AcksSent += s.AcksSent
	dst.AcksPiggybacked += s.AcksPiggybacked
	dst.SeqsAcked += s.SeqsAcked
	dst.RejectsSent += s.RejectsSent
	dst.RejectsReceived += s.RejectsReceived
	dst.NetBounces += s.NetBounces
	dst.Retransmits += s.Retransmits
	dst.Duplicates += s.Duplicates
	dst.SendBlocks += s.SendBlocks
}

// checkFaultRun enforces the reliability contract after an FM drive:
// everything delivered exactly once, nothing stranded in the fabric.
func checkFaultRun(res *FaultResult, fabric, pattern string) {
	if int(res.Stats.Delivered) != res.Messages {
		panic(fmt.Sprintf("workload: %s on %s delivered %d/%d messages",
			pattern, fabric, res.Stats.Delivered, res.Messages))
	}
	if res.Stranded != 0 {
		panic(fmt.Sprintf("workload: %s on %s left %d frames stranded",
			pattern, fabric, res.Stranded))
	}
	if res.Stats.Duplicates != 0 {
		panic(fmt.Sprintf("workload: %s on %s delivered %d duplicates",
			pattern, fabric, res.Stats.Duplicates))
	}
}
