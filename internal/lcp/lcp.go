// Package lcp implements the LANai Control Program: the firmware loop the
// paper analyzes in Section 4.2 (Figure 2) and refines through Sections
// 4.3-4.5.
//
// The LCP runs as a simulated process that charges LANai instruction time
// per step of the loop. Two loop organizations are provided, matching
// Figure 2: baseline (alternate one send, one receive per trip) and
// streamed (consolidated checks; drain sends, then drain receives). On
// top of the loop, options select where outbound frames come from (the
// host send queue for hybrid, host-DMA pulls for all-DMA, or an on-card
// synthetic generator for the LANai-to-LANai experiments), whether
// received frames are DMAed onward to the host, whether the LCP performs
// per-packet interpretation (the Figure 7 switch() experiment), and
// whether host-bound packets are aggregated into single DMA transfers.
package lcp

import (
	"fmt"

	"fm/internal/lanai"
	"fm/internal/myrinet"
	"fm/internal/sim"
)

// Source selects where the LCP obtains outbound frames.
type Source int

const (
	// FromSendQueue: the host PIO-copies frames directly into the LANai
	// send queue (the hybrid architecture, Section 4.3).
	FromSendQueue Source = iota
	// FromHostDMA: frames are staged in the host DMA region and pulled
	// by the LANai's host-DMA engine (the all-DMA architecture).
	FromHostDMA
	// Synthetic: frames are generated from a fixed on-card buffer (the
	// Figure 3 LANai-to-LANai experiments; "never getting it to the
	// hosts").
	Synthetic
)

// Options configures one control program instance.
type Options struct {
	// Streamed selects the Figure 2(b) loop; false selects 2(a).
	Streamed bool
	// Interpret adds the per-packet switch() cost in the receive inner
	// loop (Section 4.4, Figure 7).
	Interpret bool
	// Source selects the outbound frame source.
	Source Source
	// HostDelivery routes received frames into the LANai receive queue
	// and DMAs them onward to the host receive queue. When false,
	// received frames are handed to OnReceive (Fig. 3 mode).
	HostDelivery bool
	// Aggregate allows multiple received frames per host DMA transfer
	// (Section 4.4: matching queue structures "allows short messages to
	// be aggregated in DMA operations"). Ignored unless HostDelivery.
	Aggregate bool
	// ExtraInstrPerPacket charges additional LANai instructions on every
	// send and receive, modeling the Myrinet API's heavier firmware.
	ExtraInstrPerPacket int
	// OnReceive consumes frames in non-HostDelivery mode. It runs in
	// process context at zero cost; drivers use it for LANai-level
	// ping-pong and counting. The frame is recycled to the fabric's
	// packet pool when OnReceive returns: it must not retain the packet
	// or its payload (copy what it needs, like an FM handler).
	OnReceive func(p *myrinet.Packet)
	// SynthDst is the destination node for synthetic frames.
	SynthDst int
}

// Stats exposes per-LCP activity counters.
type Stats struct {
	Loops     uint64 // passes around the main loop
	IdleWakes uint64 // times the loop found nothing and slept
}

// LCP is a running control program.
type LCP struct {
	d     *lanai.Device
	o     Options
	stats Stats
	batch []*myrinet.Packet // host-DMA staging scratch, reused per batch
}

// Start spawns the control program process on d.
func Start(d *lanai.Device, o Options) *LCP {
	return StartAt(new(LCP), d, o)
}

// StartAt is Start in caller-provided storage (the cluster layer's
// per-node stack slice): the control-program process spawns on the
// device's kernel exactly as Start does.
func StartAt(l *LCP, d *lanai.Device, o Options) *LCP {
	*l = LCP{d: d, o: o}
	d.K.Spawn(fmt.Sprintf("lcp%d", d.ID), l.run)
	return l
}

// Stats returns a copy of the loop counters.
func (l *LCP) Stats() Stats { return l.stats }

// sendReady reports whether the send channel has work.
func (l *LCP) sendReady() bool {
	switch l.o.Source {
	case FromSendQueue:
		return !l.d.SendQ.Empty()
	case FromHostDMA:
		return !l.d.HostOutQ.Empty()
	default:
		return l.d.SyntheticPending()
	}
}

// recvReady reports whether a frame is available on the receive channel
// and there is room to put it.
func (l *LCP) recvReady() bool {
	if !l.d.RxAvailable() {
		return false
	}
	if l.o.HostDelivery && l.d.RecvQ.Full() {
		return false
	}
	return true
}

// sendOne performs one send step: charge loop instructions, obtain the
// frame, set up the outgoing-channel DMA, and spool the frame out.
func (l *LCP) sendOne(p *sim.Proc) {
	d := l.d
	P := d.P
	instr := P.LCPStreamedSendInstr
	if !l.o.Streamed {
		instr = P.LCPBaselineSendInstr
	}
	instr += l.o.ExtraInstrPerPacket
	p.Sleep(P.Instr(instr))

	var pkt *myrinet.Packet
	switch l.o.Source {
	case FromSendQueue:
		pkt = d.SendQ.Peek()
	case FromHostDMA:
		// Fetch and decode the descriptor, then pull the frame across
		// the bus before it can be spooled to the channel.
		p.Sleep(P.Instr(P.LCPHostDMASetupInstr) + P.DMASetup)
		var ready sim.Time
		pkt, ready = d.PullFromHost()
		p.SleepUntil(ready)
	default:
		pkt = d.NextSynthetic(l.o.SynthDst)
	}

	p.Sleep(P.DMASetup)
	done := d.Inject(pkt)
	p.SleepUntil(done)

	if l.o.Source == FromSendQueue {
		// The slot is reusable once the tail has left the card; the
		// lanaisent counter advances and a blocked host may resume.
		d.SendQ.Pop()
		d.SendFreed.Pulse()
	}
}

// recvOne performs one receive step: charge loop instructions (plus
// interpretation if configured), re-arm the incoming engine, and move the
// frame to the receive queue or the synthetic consumer.
func (l *LCP) recvOne(p *sim.Proc) {
	d := l.d
	P := d.P
	instr := P.LCPStreamedRecvInstr
	if !l.o.Streamed {
		instr = P.LCPBaselineRecvInstr
	}
	if l.o.Interpret {
		instr += P.LCPInterpretInstr
	}
	instr += l.o.ExtraInstrPerPacket
	p.Sleep(P.Instr(instr))
	p.Sleep(P.DMASetup)

	pkt := d.PopRx()
	if l.o.HostDelivery {
		d.RecvQ.Push(pkt)
	} else {
		// Fig. 3 mode: the frame dies on the card. Recycle it once the
		// consumer has seen it.
		if l.o.OnReceive != nil {
			l.o.OnReceive(pkt)
		}
		d.Fab.Release(pkt)
	}
}

// deliverReady reports whether a host DMA can be issued now.
func (l *LCP) deliverReady(p *sim.Proc) bool {
	d := l.d
	return l.o.HostDelivery && !d.RecvQ.Empty() &&
		d.HostRecvFree() > 0 && d.HostDMAFreeAt() <= p.Now()
}

// deliverBatch DMAs undelivered packets to the host receive queue: "the
// LCP DMAs all undelivered packets to the host memory" in one transfer
// when aggregation is on (Section 4.4).
func (l *LCP) deliverBatch(p *sim.Proc) {
	d := l.d
	P := d.P
	p.Sleep(P.Instr(P.LCPHostDMASetupInstr) + P.DMASetup)
	n := d.RecvQ.Len()
	if free := d.HostRecvFree(); n > free {
		n = free
	}
	if !l.o.Aggregate {
		n = 1
	}
	if n == 0 {
		return // space vanished while we paid setup; retry next trip
	}
	l.batch = l.batch[:0]
	for i := 0; i < n; i++ {
		l.batch = append(l.batch, d.RecvQ.Pop())
	}
	d.DeliverToHost(l.batch) // the device copies the batch out
}

// run is the main loop (Figure 2). It never returns; the kernel unwinds
// the process at teardown.
func (l *LCP) run(p *sim.Proc) {
	d := l.d
	for {
		l.stats.Loops++
		progress := false

		for l.sendReady() {
			l.sendOne(p)
			progress = true
			if !l.o.Streamed {
				break
			}
		}

		for l.recvReady() {
			l.recvOne(p)
			progress = true
			if !l.o.Streamed {
				break
			}
		}

		if l.deliverReady(p) {
			l.deliverBatch(p)
			progress = true
		}

		if !progress {
			l.stats.IdleWakes++
			p.Wait(d.Work)
			// Waking models the tail of one polling trip: the change is
			// noticed after a partial pass around the loop.
			p.Sleep(d.P.Instr(d.P.LCPIdleRecheckInstr))
		}
	}
}
