// Package lcp implements the LANai Control Program: the firmware loop the
// paper analyzes in Section 4.2 (Figure 2) and refines through Sections
// 4.3-4.5.
//
// The LCP is event-driven, like the card's DMA engines and the SBus: it
// is a state machine whose steps are kernel events. Each point where the
// loop charges LANai instruction or DMA-setup time (from the cost model)
// ends a step, and the next step is scheduled for the instant the charge
// is paid. A loop that finds no work registers on the device's work
// signal, and the next pulse resumes it.
//
// Two loop organizations are provided, matching Figure 2: baseline
// (alternate one send, one receive per trip) and streamed (consolidated
// checks; drain sends, then drain receives). On top of the loop, options
// select where outbound frames come from (the host send queue for
// hybrid, host-DMA pulls for all-DMA, or an on-card synthetic generator
// for the LANai-to-LANai experiments), whether received frames are DMAed
// onward to the host, whether the LCP performs per-packet interpretation
// (the Figure 7 switch() experiment), and whether host-bound packets are
// aggregated into single DMA transfers.
package lcp

import (
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
	// OnReceive consumes frames in non-HostDelivery mode. It runs inside
	// the receive step, an event callback, at zero cost, so it must not
	// block; drivers use it for LANai-level ping-pong and counting. The
	// frame is recycled to the fabric's packet pool when OnReceive
	// returns: it must not retain the packet or its payload (copy what
	// it needs, like an FM handler).
	OnReceive func(p *myrinet.Packet)
	// SynthDst is the destination node for synthetic frames.
	SynthDst int
}

// Stats exposes per-LCP activity counters.
type Stats struct {
	Loops     uint64 // passes around the main loop
	IdleWakes uint64 // times the loop found nothing and slept
}

// LCP is a running control program: the Figure 2 loop as a state
// machine. phase is the part of the loop it stands in, and stage how far
// the operation there has got. Every charge of LANai time ends a stage,
// and the next stage runs as an event once the charge is paid.
type LCP struct {
	d     *lanai.Device
	o     Options
	stats Stats
	batch []*myrinet.Packet // host-DMA staging scratch, reused per batch

	phase    phase
	stage    uint8
	progress bool            // this trip around the loop has done work
	pkt      *myrinet.Packet // the frame sendOne is moving
}

// phase is a part of Figure 2's loop.
type phase uint8

const (
	top        phase = iota // the start of a trip around the loop
	sending                 // sendOne while the send channel has work
	receiving               // recvOne while a frame waits
	delivering              // one host DMA, if one can be issued
	idling                  // no work this trip: wait for some
)

// Start runs the control program on d.
func Start(d *lanai.Device, o Options) *LCP {
	return StartAt(new(LCP), d, o)
}

// StartAt is Start in caller-provided storage (the cluster layer's
// per-node stack slice). The first step runs at the current instant,
// after the events already queued there.
func StartAt(l *LCP, d *lanai.Device, o Options) *LCP {
	*l = LCP{d: d, o: o}
	d.K.AtArg(d.K.Now(), step, l)
	return l
}

// Stats returns a copy of the loop counters.
func (l *LCP) Stats() Stats { return l.stats }

// step is the machine's one event callback, with the *LCP as argument.
// Once the kernel tears down it does nothing, so a step left pending by
// a failed run never moves a frame.
func step(a any) {
	l := a.(*LCP)
	if l.d.K.Stopped() {
		return
	}
	l.run()
}

// sleep ends the current stage: stage next runs d of LANai time from
// now. It returns false, which an operation returns to say it is not
// done yet.
func (l *LCP) sleep(next uint8, d sim.Duration) bool {
	l.stage = next
	l.d.K.AfterArg(d, step, l)
	return false
}

// sleepUntil ends the current stage: stage next runs at t, or now if t
// has passed.
func (l *LCP) sleepUntil(next uint8, t sim.Time) bool {
	k := l.d.K
	l.stage = next
	k.AtArg(max(t, k.Now()), step, l)
	return false
}

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
// frame, set up the outgoing-channel DMA, and spool the frame out. It
// returns true once the frame's tail has left the card.
func (l *LCP) sendOne() bool {
	d := l.d
	P := d.P
	switch l.stage {
	case 0:
		instr := P.LCPStreamedSendInstr
		if !l.o.Streamed {
			instr = P.LCPBaselineSendInstr
		}
		instr += l.o.ExtraInstrPerPacket
		return l.sleep(1, P.Instr(instr))
	case 1:
		switch l.o.Source {
		case FromSendQueue:
			l.pkt = d.SendQ.Peek()
		case FromHostDMA:
			// Fetch and decode the descriptor, then pull the frame across
			// the bus before it can be spooled to the channel.
			return l.sleep(2, P.Instr(P.LCPHostDMASetupInstr)+P.DMASetup)
		default:
			l.pkt = d.NextSynthetic(l.o.SynthDst)
		}
		return l.sleep(4, P.DMASetup)
	case 2:
		var ready sim.Time
		l.pkt, ready = d.PullFromHost()
		return l.sleepUntil(3, ready)
	case 3:
		return l.sleep(4, P.DMASetup)
	case 4:
		done := d.Inject(l.pkt)
		l.pkt = nil
		return l.sleepUntil(5, done)
	}

	if l.o.Source == FromSendQueue {
		// The slot is reusable once the tail has left the card; the
		// lanaisent counter advances and a blocked host may resume.
		d.SendQ.Pop()
		d.SendFreed.Pulse()
	}
	return true
}

// recvOne performs one receive step: charge loop instructions (plus
// interpretation if configured), re-arm the incoming engine, and move the
// frame to the receive queue or the synthetic consumer. It returns true
// once the frame has moved.
func (l *LCP) recvOne() bool {
	d := l.d
	P := d.P
	switch l.stage {
	case 0:
		instr := P.LCPStreamedRecvInstr
		if !l.o.Streamed {
			instr = P.LCPBaselineRecvInstr
		}
		if l.o.Interpret {
			instr += P.LCPInterpretInstr
		}
		instr += l.o.ExtraInstrPerPacket
		return l.sleep(1, P.Instr(instr))
	case 1:
		return l.sleep(2, P.DMASetup)
	}

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
	return true
}

// deliverReady reports whether a host DMA can be issued now.
func (l *LCP) deliverReady() bool {
	d := l.d
	return l.o.HostDelivery && !d.RecvQ.Empty() &&
		d.HostRecvFree() > 0 && d.HostDMAFreeAt() <= d.K.Now()
}

// deliverBatch DMAs undelivered packets to the host receive queue: "the
// LCP DMAs all undelivered packets to the host memory" in one transfer
// when aggregation is on (Section 4.4). It returns true once the
// transfer is issued, or found to have no room after the setup.
func (l *LCP) deliverBatch() bool {
	d := l.d
	P := d.P
	if l.stage == 0 {
		return l.sleep(1, P.Instr(P.LCPHostDMASetupInstr)+P.DMASetup)
	}

	n := d.RecvQ.Len()
	if free := d.HostRecvFree(); n > free {
		n = free
	}
	if !l.o.Aggregate {
		n = 1
	}
	if n == 0 {
		return true // space vanished while we paid setup; retry next trip
	}
	l.batch = l.batch[:0]
	for i := 0; i < n; i++ {
		l.batch = append(l.batch, d.RecvQ.Pop())
	}
	d.DeliverToHost(l.batch) // the device copies the batch out
	return true
}

// idle waits for work: the next pulse of the device's work signal
// resumes the loop, which then pays the tail of one polling trip.
func (l *LCP) idle() bool {
	switch l.stage {
	case 0:
		l.stats.IdleWakes++
		l.stage = 1
		l.d.Work.Notify(step, l)
		return false
	case 1:
		// Waking models the tail of one polling trip: the change is
		// noticed after a partial pass around the loop.
		return l.sleep(2, l.d.P.Instr(l.d.P.LCPIdleRecheckInstr))
	}
	return true
}

// run is the main loop (Figure 2), resumed where the last step left it.
// It returns when an operation has scheduled its next stage. An
// operation that returns true is done, and the loop moves on as the
// firmware's loop would.
func (l *LCP) run() {
	for {
		switch l.phase {
		case top:
			l.stats.Loops++
			l.progress = false
			l.phase = sending

		case sending: // for sendReady() { sendOne(); if !Streamed { break } }
			if l.stage == 0 && !l.sendReady() {
				l.phase = receiving
				continue
			}
			if !l.sendOne() {
				return
			}
			l.stage, l.progress = 0, true
			if !l.o.Streamed {
				l.phase = receiving
			}

		case receiving: // for recvReady() { recvOne(); if !Streamed { break } }
			if l.stage == 0 && !l.recvReady() {
				l.phase = delivering
				continue
			}
			if !l.recvOne() {
				return
			}
			l.stage, l.progress = 0, true
			if !l.o.Streamed {
				l.phase = delivering
			}

		case delivering: // if deliverReady() { deliverBatch() }
			if l.stage == 0 && !l.deliverReady() {
				l.phase = idling
				continue
			}
			if !l.deliverBatch() {
				return
			}
			l.stage, l.progress = 0, true
			l.phase = idling

		case idling: // if !progress { wait for work }
			if l.stage == 0 && l.progress {
				l.phase = top
				continue
			}
			if !l.idle() {
				return
			}
			l.stage = 0
			l.phase = top
		}
	}
}
