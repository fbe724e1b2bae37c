// Package lanai models the Myrinet interface card's network coprocessor
// (LANai 2.3): 128 KB of on-board memory holding the send and receive
// queues, three DMA engines (incoming channel, outgoing channel, host),
// and the host-visible registers through which the two processors
// coordinate (paper Sections 2 and 4).
//
// The LANai's processor itself is modeled by the control program in
// package lcp, an event-driven state machine that charges instruction
// time against the cost model and sleeps on Work between trips. This
// package holds the device state both sides share.
package lanai

import (
	"fmt"

	"fm/internal/cost"
	"fm/internal/myrinet"
	"fm/internal/ring"
	"fm/internal/sbus"
	"fm/internal/sim"
)

// MemoryBytes is the LANai 2.3 on-board memory size (Table/Figure 5).
const MemoryBytes = 128 << 10

// QueueConfig sizes the device queues. Slot sizes are in packets; the
// constructor verifies the byte footprint fits the 128 KB budget.
type QueueConfig struct {
	// FrameBytes is the maximum wire size of one frame (payload plus
	// header); it determines the byte footprint of each queue slot.
	FrameBytes int
	// SendSlots is the LANai send queue depth.
	SendSlots int
	// RecvSlots is the LANai receive queue depth.
	RecvSlots int
	// HostRecvSlots is the host receive queue depth (pinned DMA region,
	// host memory — not counted against LANai memory).
	HostRecvSlots int
	// HostOutSlots is the all-DMA outbound staging depth (DMA region).
	HostOutSlots int
	// ChannelSlots is the incoming-channel staging depth; arrivals beyond
	// it stall in the network (wormhole back-pressure).
	ChannelSlots int
}

// DefaultQueues returns the FM 1.0 queue geometry for a given frame size.
func DefaultQueues(frameBytes int) QueueConfig {
	return QueueConfig{
		FrameBytes:    frameBytes,
		SendSlots:     32,
		RecvSlots:     64,
		HostRecvSlots: 256,
		HostOutSlots:  32,
		ChannelSlots:  2,
	}
}

// lanaiFootprint returns the LANai memory consumed by the configuration.
func (q QueueConfig) lanaiFootprint() int {
	const scratch = 8 << 10 // LCP code + variables
	return (q.SendSlots+q.RecvSlots)*q.FrameBytes + scratch
}

// Stats counts device-level activity.
type Stats struct {
	Sent           uint64 // packets injected into the network
	Received       uint64 // packets taken off the incoming channel
	Delivered      uint64 // packets DMAed into the host receive queue
	HostDMABatches uint64 // host-DMA transfers issued
	HostDMAPackets uint64 // packets carried by those transfers
	NetStalls      uint64 // arrivals that had to wait for staging space
}

// Device is one node's LANai card.
type Device struct {
	ID  int
	K   *sim.Kernel
	P   *cost.Params
	Bus *sbus.Bus
	Fab *myrinet.Fabric
	Cfg QueueConfig

	// SendQ is the LANai send queue: in hybrid mode the host PIO-copies
	// frames straight into it (Figure 6).
	SendQ *ring.Ring[*myrinet.Packet]
	// RecvQ is the LANai receive queue the incoming-channel engine fills.
	RecvQ *ring.Ring[*myrinet.Packet]

	// HostRecvQ is the host receive queue in the pinned DMA region; the
	// host-DMA engine appends aggregated batches to it.
	HostRecvQ *ring.Ring[*myrinet.Packet]
	// HostOutQ is the all-DMA outbound staging ring in the DMA region.
	HostOutQ *ring.Ring[*myrinet.Packet]

	// HostRecvConsumed mirrors the host's consumption counter for
	// HostRecvQ; the host refreshes it with an SBus control write so the
	// LANai can compute free space without touching host memory.
	HostRecvConsumed uint64

	// Work wakes the control program: pulsed on doorbells, arrivals, and
	// engine completions.
	Work *sim.Signal
	// SendFreed wakes a host blocked on a full send path (hybrid SendQ
	// or all-DMA staging slot released).
	SendFreed *sim.Signal
	// HostRecvAvail wakes a host blocked in WaitIncoming.
	HostRecvAvail *sim.Signal

	// rxChan is the incoming-channel staging buffer; netPending holds
	// arrivals stalled behind it (wormhole back-pressure).
	rxChan     *ring.Ring[*myrinet.Packet]
	netPending []*myrinet.Packet

	// hostDMAFree is when the host-DMA engine can next start.
	hostDMAFree sim.Time

	// dmaInflight is the FIFO of packets aboard in-flight host-DMA
	// transfers, with dmaCounts holding the per-transfer packet counts.
	// Completion events (hostDMADone) pop from the front; keeping the
	// FIFO on the device instead of capturing each batch in an event
	// closure makes delivery scheduling allocation-free. The storage is
	// compacted for reuse whenever the engine drains.
	dmaInflight []*myrinet.Packet
	dmaCounts   []int
	dmaHead     int
	dmaCntHead  int

	// Synthetic send state for the LANai-to-LANai experiments (Fig. 3):
	// the control program sends synthRemaining frames of synthSize bytes
	// from a fixed buffer, no host involved.
	synthRemaining int
	synthPayload   []byte

	stats Stats
}

// New builds a device, attaches it to the fabric as node id's sink, and
// verifies the queue geometry fits LANai memory.
func New(k *sim.Kernel, p *cost.Params, bus *sbus.Bus, fab *myrinet.Fabric, id int, cfg QueueConfig) *Device {
	return NewAt(new(Device), k, p, bus, fab, id, cfg)
}

// NewAt is New in caller-provided storage (the cluster layer's per-node
// stack slice): same checks, same fabric attachment.
func NewAt(d *Device, k *sim.Kernel, p *cost.Params, bus *sbus.Bus, fab *myrinet.Fabric, id int, cfg QueueConfig) *Device {
	if fp := cfg.lanaiFootprint(); fp > MemoryBytes {
		panic(fmt.Sprintf("lanai: queue config needs %d bytes, exceeds %d KB card memory", fp, MemoryBytes>>10))
	}
	*d = Device{
		ID: id, K: k, P: p, Bus: bus, Fab: fab, Cfg: cfg,
		SendQ:         ring.New[*myrinet.Packet](fmt.Sprintf("lanai%d.send", id), cfg.SendSlots),
		RecvQ:         ring.New[*myrinet.Packet](fmt.Sprintf("lanai%d.recv", id), cfg.RecvSlots),
		HostRecvQ:     ring.New[*myrinet.Packet](fmt.Sprintf("host%d.recv", id), cfg.HostRecvSlots),
		HostOutQ:      ring.New[*myrinet.Packet](fmt.Sprintf("host%d.out", id), cfg.HostOutSlots),
		rxChan:        ring.New[*myrinet.Packet](fmt.Sprintf("lanai%d.chan", id), cfg.ChannelSlots),
		Work:          sim.NewSignal(k),
		SendFreed:     sim.NewSignal(k),
		HostRecvAvail: sim.NewSignal(k),
	}
	fab.Attach(id, d)
	return d
}

// Stats returns a copy of the device counters.
func (d *Device) Stats() Stats { return d.stats }

// Arrive implements myrinet.Sink: the incoming channel presents a fully
// received frame. If staging is full the frame stalls (back-pressure).
func (d *Device) Arrive(p *myrinet.Packet) {
	if !d.rxChan.TryPush(p) {
		d.netPending = append(d.netPending, p)
		d.stats.NetStalls++
	}
	d.Work.Pulse()
}

// RxAvailable reports whether the incoming channel holds a frame.
func (d *Device) RxAvailable() bool { return !d.rxChan.Empty() }

// PopRx removes the oldest staged frame and admits any stalled arrival.
func (d *Device) PopRx() *myrinet.Packet {
	p := d.rxChan.Pop()
	if len(d.netPending) > 0 {
		d.rxChan.Push(d.netPending[0])
		d.netPending = d.netPending[1:]
	}
	d.stats.Received++
	return p
}

// HostRecvFree returns the LANai's (conservative) view of free host
// receive queue slots, computed from its own delivery count (which
// includes packets still in flight on the bus) and the host-refreshed
// consumption register.
func (d *Device) HostRecvFree() int {
	used := int(d.stats.Delivered - d.HostRecvConsumed)
	free := d.Cfg.HostRecvSlots - used
	if free < 0 {
		free = 0
	}
	return free
}

// HostDMAFreeAt returns when the host-DMA engine is next idle.
func (d *Device) HostDMAFreeAt() sim.Time { return d.hostDMAFree }

// DeliverToHost starts one host-DMA transfer carrying batch into the host
// receive queue and returns its completion time. The engine runs
// autonomously: packets appear in HostRecvQ (and the host is woken) when
// the transfer completes. The caller has already charged the LANai
// processor for setup and verified HostRecvFree() >= len(batch).
func (d *Device) DeliverToHost(batch []*myrinet.Packet) sim.Time {
	if len(batch) == 0 {
		panic("lanai: empty host DMA batch")
	}
	bytes := 0
	for _, p := range batch {
		bytes += p.WireBytes()
	}
	_, end := d.Bus.DMA(d.hostDMAFree, bytes)
	d.hostDMAFree = end
	d.stats.HostDMABatches++
	d.stats.HostDMAPackets += uint64(len(batch))
	d.stats.Delivered += uint64(len(batch))
	d.dmaInflight = append(d.dmaInflight, batch...)
	d.dmaCounts = append(d.dmaCounts, len(batch))
	d.K.AtArg(end, hostDMADone, d)
	return end
}

// hostDMADone completes the oldest in-flight host-DMA transfer: its
// packets appear in the host receive queue and the host is woken.
// Transfers complete in issue order because hostDMAFree serializes the
// engine, so popping the FIFO front always matches the firing event.
func hostDMADone(a any) {
	d := a.(*Device)
	n := d.dmaCounts[d.dmaCntHead]
	d.dmaCntHead++
	for i := 0; i < n; i++ {
		d.HostRecvQ.Push(d.dmaInflight[d.dmaHead+i])
		d.dmaInflight[d.dmaHead+i] = nil
	}
	d.dmaHead += n
	if d.dmaHead == len(d.dmaInflight) {
		d.dmaInflight = d.dmaInflight[:0]
		d.dmaCounts = d.dmaCounts[:0]
		d.dmaHead, d.dmaCntHead = 0, 0
	} else if d.dmaHead > len(d.dmaInflight)/2 {
		// The engine never fully drained: slide the live tail down so
		// the dead prefix cannot grow without bound under sustained
		// back-to-back transfers (amortized O(1) per packet).
		live := copy(d.dmaInflight, d.dmaInflight[d.dmaHead:])
		clear(d.dmaInflight[live:])
		d.dmaInflight = d.dmaInflight[:live]
		d.dmaHead = 0
		liveCnt := copy(d.dmaCounts, d.dmaCounts[d.dmaCntHead:])
		d.dmaCounts = d.dmaCounts[:liveCnt]
		d.dmaCntHead = 0
	}
	d.HostRecvAvail.Pulse()
	d.Work.Pulse()
}

// Inject pushes p into the network and returns when the outgoing channel
// is free again. Caller charges DMA setup first.
func (d *Device) Inject(p *myrinet.Packet) sim.Time {
	d.stats.Sent++
	return d.Fab.Inject(p)
}

// PullFromHost starts a host-DMA transfer pulling the oldest staged
// outbound frame (all-DMA mode) from the DMA region into LANai memory.
// It returns the packet and the transfer completion time; the staging
// slot is released (and the host woken) at completion.
func (d *Device) PullFromHost() (*myrinet.Packet, sim.Time) {
	p := d.HostOutQ.Peek()
	_, end := d.Bus.DMA(d.hostDMAFree, p.WireBytes())
	d.hostDMAFree = end
	d.K.AtArg(end, pullFromHostDone, d)
	return p, end
}

// pullFromHostDone releases the oldest staged outbound slot when its
// pull transfer completes (pulls complete in issue order, like
// deliveries — the host-DMA engine is serial).
func pullFromHostDone(a any) {
	d := a.(*Device)
	d.HostOutQ.Pop()
	d.SendFreed.Pulse()
}

// HostDoorbell is rung by the host (after its SBus control write) to tell
// the control program new outbound work exists.
func (d *Device) HostDoorbell() { d.Work.Pulse() }

// HostUpdateRecvConsumed is the host's refresh of its consumption counter
// (after its SBus control write); it may unblock host-DMA delivery.
func (d *Device) HostUpdateRecvConsumed(v uint64) {
	d.HostRecvConsumed = v
	d.Work.Pulse()
}

// --- Synthetic traffic for the LANai-to-LANai experiments (Fig. 3) ---

// SetSynthetic arms the control program to send n frames of size payload
// bytes from a fixed on-card buffer.
func (d *Device) SetSynthetic(n, size int) {
	d.synthRemaining = n
	if d.synthPayload == nil || len(d.synthPayload) != size {
		d.synthPayload = make([]byte, size)
		for i := range d.synthPayload {
			d.synthPayload[i] = byte(i)
		}
	}
	d.Work.Pulse()
}

// AddSynthetic queues n more synthetic sends (ping-pong replies).
func (d *Device) AddSynthetic(n int) {
	d.synthRemaining += n
	d.Work.Pulse()
}

// SyntheticPending reports whether synthetic sends remain.
func (d *Device) SyntheticPending() bool { return d.synthRemaining > 0 }

// NextSynthetic builds the next synthetic frame addressed to dst. The
// frame comes from the fabric's packet pool and copies the on-card
// pattern buffer, so the consumer can recycle it with Fab.Release.
func (d *Device) NextSynthetic(dst int) *myrinet.Packet {
	d.synthRemaining--
	p := d.Fab.NewPacket()
	p.Src, p.Dst = d.ID, dst
	p.Type = myrinet.Data
	p.SetPayload(d.synthPayload)
	p.HeaderBytes = d.P.FMHeaderBytes
	return p
}
