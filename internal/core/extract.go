package core

import (
	"fmt"
	"math"
	"slices"

	"fm/internal/myrinet"
	"fm/internal/ring"
	"fm/internal/sim"
)

// consumedSyncBatch is how many consumed packets the host accumulates
// before refreshing the LANai's consumption register with an SBus write.
const consumedSyncBatch = 8

// Extract is FM_extract: dequeue and process one or more received
// messages, running their handlers on the calling host process (Table 1).
// It returns the number of data packets delivered to handlers. Because
// the LANai drains the network without host involvement, failing to call
// Extract never blocks the network (Section 3.1) — it only fills queues.
func (ep *Endpoint) Extract() int {
	ep.cpu.Advance(ep.p.HostExtractPoll)
	delivered := 0
	for ep.recvBacklog() > 0 {
		if ep.cfg.DrainLimit > 0 && delivered >= ep.cfg.DrainLimit {
			break
		}
		pkt := ep.popRecv()
		if ep.process(pkt) {
			delivered++
		}
	}

	if ep.cfg.FlowControl {
		ep.shedOverload()
		ep.retryRejected()
		ep.flushAcks()
	}
	ep.syncConsumed()
	return delivered
}

// WaitIncoming blocks the host process until there is host work: a
// packet in the host receive queue, or a rejected packet whose
// retransmission backoff has expired. It is a driver convenience
// standing in for a poll loop; the detection cost is charged by the
// Extract call that follows.
func (ep *Endpoint) WaitIncoming() {
	for ep.dev.HostRecvQ.Empty() && !ep.retryDue() {
		ep.cpu.Wait(ep.dev.HostRecvAvail)
	}
}

// retryDue reports whether the reject queue holds a packet ready to be
// retransmitted.
func (ep *Endpoint) retryDue() bool {
	return ep.cfg.FlowControl && ep.rejectQ != nil && !ep.rejectQ.Empty() &&
		ep.rejectQ.Peek().retryAt <= ep.Now()
}

// HasIncoming reports whether Extract would find packets.
func (ep *Endpoint) HasIncoming() bool { return !ep.dev.HostRecvQ.Empty() }

// recvBacklog pays what the host owes, then reads how many packets wait
// in the host receive queue: the LANai fills that ring, so the read
// belongs at the host's own instant. Processing a packet leaves charges
// owed, and the receive loops call this before each next packet.
func (ep *Endpoint) recvBacklog() int {
	ep.cpu.Pay()
	return ep.dev.HostRecvQ.Len()
}

// popRecv dequeues one packet from the host receive queue, charging the
// per-packet host costs. From here to the handler call (or to the next
// recvBacklog) the host touches only its own state and the packet, so
// the costs stay owed.
func (ep *Endpoint) popRecv() *myrinet.Packet {
	pkt := ep.dev.HostRecvQ.Pop()
	ep.cpu.Charge(ep.p.HostExtractPacket)
	if ep.cfg.BufferMgmt {
		ep.cpu.Charge(ep.p.HostBufMgmtRecv)
	}
	return pkt
}

// process interprets one packet on the host (the LANai does no
// interpretation; "this simple LCP leaves packet interpretation and
// sorting to the host", Section 4.4). It reports whether a data packet
// was delivered to a handler. The packet's ownership ends here: it is
// recycled to the fabric pool (ack, delivered data) or re-armed in place
// for retransmission (reject).
func (ep *Endpoint) process(pkt *myrinet.Packet) bool {
	if pkt.Bounced {
		// A fault bounce is our own outbound frame coming home, so any
		// acknowledgements riding on it are aimed at the peer's sequence
		// namespace, not ours: skip processAcks and keep them attached
		// for the retry.
		return ep.requeueBounced(pkt)
	}
	// Piggybacked acknowledgements ride on any packet type.
	if len(pkt.Acks) > 0 {
		ep.processAcks(pkt.Acks)
	}
	switch pkt.Type {
	case myrinet.Ack:
		ep.release(pkt)
		return false
	case myrinet.Reject:
		// One of our packets came back: park it for retransmission,
		// reusing the same frame (flip it back into a Retransmit in
		// place — the payload never moves). The reject queue has a
		// reserved slot for every outstanding packet, so this push
		// cannot overflow — that is the deadlock-freedom argument of
		// Section 4.5.
		ep.cpu.Advance(ep.p.HostFlowControlRecv)
		ep.stats.RejectsReceived++
		pkt.Src, pkt.Dst = ep.NodeID(), pkt.Src
		pkt.Type = myrinet.Retransmit
		pkt.Acks = pkt.Acks[:0] // consumed above; attachAcks may refill
		ep.requeue(pkt)
		return false
	case myrinet.Data, myrinet.Retransmit:
		ep.deliver(pkt)
		return true
	default:
		panic(fmt.Sprintf("fm: unexpected packet type %v on node %d", pkt.Type, ep.NodeID()))
	}
}

// requeueBounced parks a fabric-bounced frame for retransmission: the
// fabric turned one of our outbound frames around at a failed component
// and the frame still carries its original payload and any piggybacked
// acks. Data becomes a Retransmit; a bounced Ack resends as an Ack (its
// ranges were never seen by the peer, so resending loses nothing and
// duplicated ack processing is idempotent).
func (ep *Endpoint) requeueBounced(pkt *myrinet.Packet) bool {
	ep.cpu.Advance(ep.p.HostFlowControlRecv)
	ep.stats.NetBounces++
	pkt.Src, pkt.Dst = ep.NodeID(), pkt.Src
	switch pkt.OrigType {
	case myrinet.Data, myrinet.Retransmit:
		pkt.Type = myrinet.Retransmit
	default:
		pkt.Type = pkt.OrigType
	}
	pkt.Bounced = false
	pkt.OrigType = 0
	ep.requeue(pkt)
	return false
}

// requeue parks a returned frame in the reject queue until its retry
// delay expires, and arms a wakeup at that deadline: a host parked in
// WaitIncoming with no inbound traffic must still come back to
// retransmit (the stand-in for FM's periodic host polling). The queue is
// allocated on the first return, since most endpoints never see one.
func (ep *Endpoint) requeue(pkt *myrinet.Packet) {
	if ep.rejectQ == nil {
		// Twice the window: receiver rejects are covered by the window
		// reservation (Section 4.5), but fabric fault bounces can also
		// return Acks, which hold no window slot. Ring capacity is
		// timing-neutral, so faultless runs are unchanged.
		ep.rejectQ = ring.New[rejectedEntry](fmt.Sprintf("host%d.reject", ep.NodeID()), ep.cfg.WindowSlots*2)
	}
	ep.rejectQ.Push(rejectedEntry{pkt: pkt, retryAt: ep.Now().Add(ep.cfg.RetryDelay)})
	ep.dev.HostRecvAvail.PulseAfter(ep.cfg.RetryDelay + sim.Microsecond)
}

// deliver records flow-control state, runs the handler, and recycles the
// frame: the payload "does not persist beyond the return of the handler"
// (Section 3.1), which is exactly the window in which the packet is ours
// to release.
func (ep *Endpoint) deliver(pkt *myrinet.Packet) {
	if ep.cfg.FlowControl {
		ep.cpu.Charge(ep.p.HostFlowControlRecv)
		if ep.isDuplicate(pkt) {
			ep.stats.Duplicates++
			if ep.cfg.CheckInvariants {
				panic(fmt.Sprintf("fm: duplicate delivery src=%d seq=%d", pkt.Src, pkt.Seq))
			}
			ep.release(pkt)
			return
		}
		if ep.queueAck(pkt.Src, pkt.Seq) >= ep.cfg.AckBatch {
			ep.sendAck(pkt.Src)
		}
	}
	h := ep.handlers[pkt.Handler]
	if h == nil {
		panic(fmt.Sprintf("fm: no handler %d registered on node %d", pkt.Handler, ep.NodeID()))
	}
	ep.cpu.MemRead(len(pkt.Payload))
	ep.cpu.Charge(ep.p.HostHandlerDispatch)
	ep.stats.Delivered++
	ep.cpu.Pay() // the handler may touch anything
	h(pkt.Src, pkt.Payload)
	ep.release(pkt)
}

// seenKey is one delivered frame's (source, seq) in the exactly-once
// screen. Two 32-bit halves keep the key at 8 bytes: the screen holds
// one key per frame a node receives.
type seenKey struct{ src, seq uint32 }

// isDuplicate screens (src, seq) pairs. Under the protocol duplicates are
// impossible (a packet is either accepted or rejected, never both, and
// the network is reliable); the screen exists to verify that invariant.
// A source or seq past 32 bits would alias another frame's key, so it
// fails by name instead.
func (ep *Endpoint) isDuplicate(pkt *myrinet.Packet) bool {
	if uint64(pkt.Src) > math.MaxUint32 || pkt.Seq > math.MaxUint32 {
		panic(fmt.Sprintf("fm: frame src=%d seq=%d on node %d does not fit the duplicate screen's key: source and seq are each limited to 32 bits (%d)",
			pkt.Src, pkt.Seq, ep.NodeID(), uint32(math.MaxUint32)))
	}
	key := seenKey{src: uint32(pkt.Src), seq: uint32(pkt.Seq)}
	if _, ok := ep.seen[key]; ok {
		return true
	}
	ep.seen[key] = struct{}{}
	return false
}

// processAcks releases outstanding slots for acknowledged sequences.
func (ep *Endpoint) processAcks(ranges []myrinet.SeqRange) {
	ep.cpu.Charge(ep.p.HostFlowControlRecv)
	for _, r := range ranges {
		for s := r.Lo; s <= r.Hi; s++ {
			delete(ep.outstanding, s)
		}
	}
}

// shedOverload implements host-side rejection: if, after draining its
// budget, the host receive queue backlog still exceeds the threshold,
// excess data packets are returned to their senders instead of being
// buffered without bound (Section 4.5's return-to-sender receiver side).
func (ep *Endpoint) shedOverload() {
	if ep.cfg.RejectThreshold <= 0 || ep.cfg.Protocol != ReturnToSender {
		return
	}
	for ep.recvBacklog() > ep.cfg.RejectThreshold {
		pkt := ep.popRecv()
		switch pkt.Type {
		case myrinet.Data, myrinet.Retransmit:
			// Consume piggybacked acknowledgements before bouncing: the
			// sender cleared them when it attached them, so dropping
			// them here would leak outstanding slots forever.
			if len(pkt.Acks) > 0 {
				ep.processAcks(pkt.Acks)
			}
			ep.cpu.Advance(ep.p.HostFlowControlRecv)
			ep.stats.RejectsSent++
			// Bounce the same frame: flip it into a Reject in place and
			// return it to its sender (the payload rides back with it).
			pkt.Src, pkt.Dst = ep.NodeID(), pkt.Src
			pkt.Type = myrinet.Reject
			pkt.Acks = pkt.Acks[:0] // consumed above
			ep.pushFrame(pkt)
		default:
			// Never bounce control traffic; process it normally.
			ep.process(pkt)
		}
	}
}

// retryRejected resends reject-queue entries whose backoff has expired.
func (ep *Endpoint) retryRejected() {
	for ep.retryDue() {
		entry := ep.rejectQ.Pop()
		// A bounced frame keeps its original acks attached through the
		// requeue; only attach fresh ones when the slot is empty (on the
		// healthy path it always is — attachAcks truncates on send).
		if ep.cfg.PiggybackAcks && len(entry.pkt.Acks) == 0 {
			ep.attachAcks(entry.pkt)
		}
		ep.pushFrame(entry.pkt)
		ep.stats.Retransmits++
		if entry.pkt.Type != myrinet.Ack {
			ep.stats.Sent++
		}
	}
}

// flushAcks emits standalone acknowledgements once the receive queue has
// drained, so senders are never starved of window space when there is no
// reverse data traffic to piggyback on.
func (ep *Endpoint) flushAcks() {
	if !ep.dev.HostRecvQ.Empty() {
		return
	}
	// Sorted iteration keeps the simulation deterministic. Every entry
	// holds at least one pending seq (consumed entries are deleted), and
	// the source scratch persists on the endpoint, so a quiescent
	// Extract allocates and scans nothing.
	srcs := ep.ackSrcs[:0]
	for src := range ep.pendingAcks {
		srcs = append(srcs, src)
	}
	slices.Sort(srcs)
	ep.ackSrcs = srcs
	for _, src := range srcs {
		ep.sendAck(src)
	}
}

// sendAck emits one standalone (possibly aggregated) acknowledgement.
func (ep *Endpoint) sendAck(src int) {
	seqs := ep.takeAcks(src)
	if len(seqs) == 0 {
		return
	}
	ep.cpu.Charge(ep.p.HostAckBuild)
	pkt := ep.newPacket()
	pkt.Dst = src
	pkt.Type = myrinet.Ack
	pkt.Acks = coalesce(pkt.Acks[:0], seqs)
	ep.stats.AcksSent++
	ep.stats.SeqsAcked += uint64(len(seqs))
	ep.pushFrame(pkt)
}

// syncConsumed refreshes the LANai's view of the host's consumption
// counter. With buffer management on, the update is batched and costs an
// SBus control write; the vestigial layer updates for free (its cost is
// exactly what Fig. 7 measures).
func (ep *Endpoint) syncConsumed() {
	consumed := ep.dev.HostRecvQ.Consumed() // the endpoint is the ring's only consumer
	if consumed == ep.consumedSync {
		return
	}
	if ep.cfg.BufferMgmt {
		if consumed-ep.consumedSync < consumedSyncBatch && !ep.dev.HostRecvQ.Empty() {
			return
		}
		ep.cpu.ControlWrite()
	}
	ep.consumedSync = consumed
	ep.dev.HostUpdateRecvConsumed(consumed)
}
