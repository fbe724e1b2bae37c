package core

import (
	"encoding/binary"
	"fmt"
	"slices"

	"fm/internal/cost"
	"fm/internal/host"
	"fm/internal/lanai"
	"fm/internal/myrinet"
	"fm/internal/ring"
	"fm/internal/sim"
)

// Handler consumes a delivered message at the destination, running on the
// receiving host's process during Extract. The payload buffer "does not
// persist beyond the return of the handler" (Section 3.1): handlers must
// copy data they want to keep. Handlers may send; preventing deadlock is
// the programmer's responsibility, as in FM 1.0. (A type alias so any
// messaging layer with the same shape satisfies shared interfaces.)
type Handler = func(src int, payload []byte)

// Stats counts endpoint-level protocol activity.
type Stats struct {
	Sent            uint64 // data packets given to the network (incl. retransmits)
	Delivered       uint64 // data packets handed to handlers
	AcksSent        uint64 // standalone ack packets emitted
	AcksPiggybacked uint64 // data packets that carried acks
	SeqsAcked       uint64 // sequence numbers this side has acknowledged
	RejectsSent     uint64 // data packets this receiver bounced
	RejectsReceived uint64 // bounced packets returned to this sender
	NetBounces      uint64 // frames the fabric itself bounced back (faults)
	Retransmits     uint64 // reject-queue resends
	Duplicates      uint64 // duplicate deliveries screened (should be 0)
	SendBlocks      uint64 // sends that had to wait for window space
}

// rejectedEntry is a returned packet parked in the reject queue awaiting
// retransmission.
type rejectedEntry struct {
	pkt     *myrinet.Packet
	retryAt sim.Time
}

// Endpoint is one node's FM interface: the host-side half of the layer,
// paired with the control program running on the node's LANai.
type Endpoint struct {
	cpu *host.CPU
	dev *lanai.Device
	cfg Config
	p   *cost.Params

	handlers []Handler

	// Send side.
	nextSeq            uint64
	outstanding        map[uint64]int // seq -> destination
	rejectQ            *ring.Ring[rejectedEntry]
	cachedSendConsumed uint64 // host's cached copy of the LANai's counter
	cachedOutConsumed  uint64 // all-DMA staging equivalent

	// Receive side. pendingAcks only holds sources with acks actually
	// pending (entries are deleted when consumed, so flushAcks never
	// scans idle peers); their seq buffers park on seqBufs for reuse.
	pendingAcks  map[int][]uint64 // src -> accepted seqs not yet acked
	seqBufs      [][]uint64       // free list of pending-ack buffers
	ackSrcs      []int            // flushAcks scratch, reused per call
	consumedSync uint64           // last HostRecvQ.Consumed() pushed to the LANai register

	// Exactly-once screen (CheckInvariants) / duplicate counting: one
	// entry per delivered frame, whatever its source.
	seen map[seenKey]struct{}

	stats Stats
}

// NewAt creates the endpoint for one node in caller-provided storage
// (the cluster layer's per-node stack slice). The caller starts the
// matching control program with lcp.StartAt(l, dev, cfg.LCPOptions(p)).
func NewAt(ep *Endpoint, cpu *host.CPU, dev *lanai.Device, cfg Config, p *cost.Params) *Endpoint {
	*ep = Endpoint{
		cpu:         cpu,
		dev:         dev,
		cfg:         cfg,
		p:           p,
		handlers:    make([]Handler, maxHandlers),
		outstanding: make(map[uint64]int),
		pendingAcks: make(map[int][]uint64),
		seen:        make(map[seenKey]struct{}),
	}
	return ep
}

// NodeID returns this endpoint's node number.
func (ep *Endpoint) NodeID() int { return ep.dev.ID }

// Config returns the layer configuration.
func (ep *Endpoint) Config() Config { return ep.cfg }

// Stats returns a copy of the protocol counters.
func (ep *Endpoint) Stats() Stats { return ep.stats }

// Outstanding returns the number of unacknowledged packets in flight.
func (ep *Endpoint) Outstanding() int { return len(ep.outstanding) }

// Now returns the current virtual time.
func (ep *Endpoint) Now() sim.Time { return ep.cpu.Now() }

// CPU exposes the host processor (examples charge compute time on it).
func (ep *Endpoint) CPU() *host.CPU { return ep.cpu }

// RegisterHandler installs h at handler index id.
func (ep *Endpoint) RegisterHandler(id int, h Handler) {
	if id < 0 || id >= len(ep.handlers) {
		panic(fmt.Sprintf("fm: handler id %d out of range (max %d)", id, len(ep.handlers)-1))
	}
	ep.handlers[id] = h
}

// EncodeWords packs four 32-bit words into an FM_send_4 payload.
func EncodeWords(w0, w1, w2, w3 uint32) []byte {
	buf := make([]byte, 16)
	binary.LittleEndian.PutUint32(buf[0:], w0)
	binary.LittleEndian.PutUint32(buf[4:], w1)
	binary.LittleEndian.PutUint32(buf[8:], w2)
	binary.LittleEndian.PutUint32(buf[12:], w3)
	return buf
}

// DecodeWords unpacks an FM_send_4 payload.
func DecodeWords(payload []byte) (w0, w1, w2, w3 uint32) {
	_ = payload[15]
	return binary.LittleEndian.Uint32(payload[0:]),
		binary.LittleEndian.Uint32(payload[4:]),
		binary.LittleEndian.Uint32(payload[8:]),
		binary.LittleEndian.Uint32(payload[12:])
}

// Send4 is FM_send_4: an extremely short four-word message (Table 1).
func (ep *Endpoint) Send4(dst, handler int, w0, w1, w2, w3 uint32) {
	if err := ep.Send(dst, handler, EncodeWords(w0, w1, w2, w3)); err != nil {
		panic(err) // 16 bytes always fit any legal frame size
	}
}

// Send is FM_send: a message of up to 32 words (one frame). It blocks the
// host process until the data has been moved off the user buffer (the
// host is the data mover in hybrid mode), which is when FM_send returns
// in FM 1.0. Larger messages require segmentation (package stream).
func (ep *Endpoint) Send(dst, handler int, payload []byte) error {
	if len(payload) > ep.cfg.FramePayload {
		return fmt.Errorf("fm: payload %d exceeds frame size %d (use stream for segmentation)",
			len(payload), ep.cfg.FramePayload)
	}
	if dst == ep.NodeID() {
		return fmt.Errorf("fm: self-send not supported")
	}
	if handler < 0 || handler >= len(ep.handlers) {
		return fmt.Errorf("fm: handler id %d out of range", handler)
	}

	// Until pushFrame reaches the SBus, Send reads and writes only the
	// endpoint's own state, the packet it draws and the fabric's packet
	// pool, so its host costs are charged and paid in one chain there.
	ep.cpu.Charge(ep.p.HostSendCall)

	pkt := ep.newPacket()
	pkt.Dst = dst
	pkt.Type = myrinet.Data
	pkt.Handler = handler
	pkt.SetPayload(payload) // the layer copies data off the user buffer

	if ep.cfg.FlowControl {
		ep.cpu.Charge(ep.p.HostFlowControlSend)
		ep.waitWindow(dst)
		ep.nextSeq++
		pkt.Seq = ep.nextSeq
		ep.outstanding[pkt.Seq] = dst
		if ep.cfg.PiggybackAcks {
			ep.attachAcks(pkt)
		}
	}

	ep.pushFrame(pkt)
	ep.stats.Sent++
	return nil
}

// newPacket draws a blank frame from the fabric's packet pool with this
// endpoint's source id and header size filled in. Ownership follows the
// packet: the sender hands it to the network, the receiving endpoint (or
// LCP consumer) releases it after its handler returns. See DESIGN.md
// "Performance" for the full ownership rules.
func (ep *Endpoint) newPacket() *myrinet.Packet {
	pkt := ep.dev.Fab.NewPacket()
	pkt.Src = ep.NodeID()
	pkt.HeaderBytes = ep.p.FMHeaderBytes
	return pkt
}

// release recycles a fully consumed packet to the fabric's pool.
func (ep *Endpoint) release(pkt *myrinet.Packet) { ep.dev.Fab.Release(pkt) }

// waitWindow blocks until an outstanding slot toward dst is free,
// processing the network while waiting (acknowledgements arrive through
// Extract). Under return-to-sender the limit is the total reject-region
// reservation; under a sliding window it is the per-destination window.
func (ep *Endpoint) waitWindow(dst int) {
	for ep.windowFull(dst) {
		ep.stats.SendBlocks++
		ep.Extract()
		if ep.windowFull(dst) && !ep.HasIncoming() {
			ep.cpu.Wait(ep.dev.HostRecvAvail)
		}
	}
}

// windowFull reports whether another send toward dst must wait. The
// sliding window counts dst's entries in outstanding.
func (ep *Endpoint) windowFull(dst int) bool {
	if ep.cfg.Protocol == SlidingWindow {
		n := 0
		for _, d := range ep.outstanding {
			if d == dst {
				n++
			}
		}
		return n >= ep.cfg.WindowPerDest
	}
	return len(ep.outstanding) >= ep.cfg.WindowSlots
}

// queueAck records an accepted sequence for a future acknowledgement and
// returns how many are now pending toward src. New sources draw their
// seq buffer from the free list.
func (ep *Endpoint) queueAck(src int, seq uint64) int {
	buf, ok := ep.pendingAcks[src]
	if !ok {
		if n := len(ep.seqBufs) - 1; n >= 0 {
			buf = ep.seqBufs[n]
			ep.seqBufs[n] = nil
			ep.seqBufs = ep.seqBufs[:n]
		}
	}
	buf = append(buf, seq)
	ep.pendingAcks[src] = buf
	return len(buf)
}

// takeAcks removes and returns src's pending seqs, parking the buffer on
// the free list (the caller must finish with the slice before the next
// queueAck can hand it out again — coalesce copies it immediately).
func (ep *Endpoint) takeAcks(src int) []uint64 {
	seqs := ep.pendingAcks[src]
	if len(seqs) == 0 {
		return nil
	}
	delete(ep.pendingAcks, src)
	ep.seqBufs = append(ep.seqBufs, seqs[:0])
	return seqs
}

// attachAcks piggybacks every pending acknowledgement for pkt.Dst.
func (ep *Endpoint) attachAcks(pkt *myrinet.Packet) {
	seqs := ep.takeAcks(pkt.Dst)
	if len(seqs) == 0 {
		return
	}
	ep.cpu.Charge(ep.p.HostAckBuild)
	pkt.Acks = coalesce(pkt.Acks[:0], seqs)
	ep.stats.AcksPiggybacked++
	ep.stats.SeqsAcked += uint64(len(seqs))
}

// pushFrame moves one frame to the LANai via the configured SBus
// architecture, blocking for space as needed.
func (ep *Endpoint) pushFrame(pkt *myrinet.Packet) {
	if ep.cfg.SBusMode == AllDMA {
		ep.pushFrameAllDMA(pkt)
		return
	}
	// Hybrid (Section 4.3): the host copies the frame directly into the
	// LANai send queue and updates the hostsent counter — one
	// synchronization, no memory-to-memory copy.
	if ep.cfg.BufferMgmt {
		ep.cpu.Charge(ep.p.HostBufMgmtSend)
		ep.ensureSpace(ep.dev.SendQ, &ep.cachedSendConsumed)
	} else {
		ep.waitSlot(ep.dev.SendQ)
	}
	ep.cpu.PIOWrite(pkt.WireBytes())
	ep.dev.SendQ.Push(pkt)
	ep.cpu.ControlWrite() // hostsent++
	ep.dev.HostDoorbell()
}

// pushFrameAllDMA stages the frame in the DMA region for the LANai's
// host-DMA engine to pull: a memory-to-memory copy plus two
// synchronizations (Section 4.3's all-DMA architecture).
func (ep *Endpoint) pushFrameAllDMA(pkt *myrinet.Packet) {
	if ep.cfg.BufferMgmt {
		ep.cpu.Charge(ep.p.HostBufMgmtSend)
		ep.ensureSpace(ep.dev.HostOutQ, &ep.cachedOutConsumed)
	} else {
		ep.waitSlot(ep.dev.HostOutQ)
	}
	ep.cpu.Memcpy(pkt.WireBytes())
	ep.dev.HostOutQ.Push(pkt)
	ep.cpu.ControlWrite() // message pointer
	ep.cpu.ControlWrite() // send trigger
	ep.cpu.StatusRead()   // second synchronization: confirm acceptance
	ep.dev.HostDoorbell()
}

// ensureSpace implements the paper's cached-counter protocol: the host
// owns the produced counter and caches the LANai's consumed counter,
// paying an expensive SBus status read only when its cached view says the
// queue is full ("allowing each to own its respective counter reduces the
// amount of synchronization", Section 4.4). The host is the queue's only
// producer and the LANai's count only grows, so a cached view with room
// is never wrong, and that check reads nothing the LANai writes: it may
// run with host charges owed.
func (ep *Endpoint) ensureSpace(q *ring.Ring[*myrinet.Packet], cached *uint64) {
	for q.Produced()-*cached >= uint64(q.Cap()) {
		ep.cpu.StatusRead()
		*cached = q.Consumed()
		if !q.Full() {
			return
		}
		ep.cpu.Wait(ep.dev.SendFreed)
	}
}

// waitSlot blocks until q has a free slot, the vestigial layer's check
// without a cached counter: it reads the LANai's consumed count, so the
// host pays what it owes first.
func (ep *Endpoint) waitSlot(q *ring.Ring[*myrinet.Packet]) {
	ep.cpu.Pay()
	for q.Full() {
		ep.cpu.Wait(ep.dev.SendFreed)
	}
}

// coalesce turns a set of sequence numbers into sorted inclusive ranges,
// appending to dst (pass dst[:0] to reuse a packet's ack buffer). seqs is
// sorted in place; the caller is discarding it.
func coalesce(dst []myrinet.SeqRange, seqs []uint64) []myrinet.SeqRange {
	slices.Sort(seqs)
	for _, s := range seqs {
		if n := len(dst); n > 0 && dst[n-1].Hi+1 == s {
			dst[n-1].Hi = s
			continue
		}
		dst = append(dst, myrinet.SeqRange{Lo: s, Hi: s})
	}
	return dst
}
