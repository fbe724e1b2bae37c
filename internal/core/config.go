// Package core implements Illinois Fast Messages (FM) 1.0, the paper's
// contribution: a user-level messaging layer delivering low latency and
// high bandwidth for short messages on Myrinet-connected workstations.
//
// The public surface mirrors Table 1 of the paper:
//
//	FM_send_4(dest,handler,i0,i1,i2,i3)  ->  (*Endpoint).Send4
//	FM_send(dest,handler,buf,size)       ->  (*Endpoint).Send
//	FM_extract()                         ->  (*Endpoint).Extract
//
// Each message carries a sender-specified handler that consumes the data
// at the destination; there is no request-reply coupling, message buffers
// do not persist beyond the handler's return, and delivery is reliable
// but unordered (return-to-sender flow control may reorder).
//
// The layer is assembled feature by feature exactly as the paper's
// evaluation builds it (Sections 4.2-4.5) on the streamed LCP loop:
// Config selects the SBus architecture (hybrid vs. all-DMA), real buffer
// management vs. the vestigial fixed-buffer layer, per-packet LANai
// interpretation, and return-to-sender flow control, so every FM row of
// Table 4 is a Config value.
package core

import (
	"fm/internal/cost"
	"fm/internal/lanai"
	"fm/internal/lcp"
	"fm/internal/sim"
)

// SBusMode selects how outbound data crosses the I/O bus (Section 4.3).
type SBusMode int

const (
	// Hybrid: the host processor moves outbound data into LANai memory
	// with programmed double-word stores; inbound data arrives by DMA.
	// This is FM 1.0's choice.
	Hybrid SBusMode = iota
	// AllDMA: outbound data is copied into the pinned DMA region and
	// pulled across the bus by the LANai's host-DMA engine.
	AllDMA
)

// FlowProtocol selects the reliable-delivery protocol when FlowControl
// is enabled.
type FlowProtocol int

const (
	// ReturnToSender is FM 1.0's optimistic protocol (Section 4.5):
	// senders reserve local reject-queue space per outstanding packet;
	// overloaded receivers bounce packets back for later retransmission.
	// Buffering is independent of cluster size.
	ReturnToSender FlowProtocol = iota
	// SlidingWindow is the traditional alternative the paper's
	// Discussion proposes comparing against: each sender gets a
	// dedicated per-destination window, so receiver buffering grows
	// linearly with the number of senders.
	SlidingWindow
)

// Config assembles one variant of the messaging layer. DefaultConfig is
// full FM 1.0; the Fig. 4/7/8 ablations switch individual fields off.
type Config struct {
	// SBusMode selects hybrid or all-DMA outbound data movement.
	SBusMode SBusMode
	// BufferMgmt enables real buffer management: the cached-counter
	// space protocol on the host, queue wrap handling in the LCP, and
	// batched consumption-counter updates. When false the layer is the
	// "vestigial" Fig. 4 program: the same queues exist but their
	// management is cost-free, modeling the infinite-buffer assumption.
	BufferMgmt bool
	// FlowControl enables reliable-delivery flow control with aggregated
	// and piggybacked acknowledgements; Protocol picks the scheme.
	FlowControl bool
	// Protocol selects return-to-sender (FM 1.0) or a traditional
	// sliding window (the Discussion's comparison).
	Protocol FlowProtocol
	// WindowPerDest is the per-destination window for SlidingWindow. A
	// receiver must reserve WindowPerDest slots per possible sender, so
	// its pinned memory grows with cluster size — the scaling problem
	// return-to-sender avoids.
	WindowPerDest int
	// Interpret adds the per-packet switch() interpretation cost in the
	// LCP (the Figure 7 "+switch()" configuration).
	Interpret bool
	// Aggregate lets the LCP batch received packets into single host-DMA
	// transfers (Section 4.4). On in every paper configuration.
	Aggregate bool
	// PiggybackAcks rides pending acknowledgements on outgoing data
	// packets ("FM 1.0 optimizes further by piggybacking").
	PiggybackAcks bool

	// FramePayload is the maximum payload per frame; FM 1.0 uses 128
	// bytes (Section 5). Send rejects larger buffers: "larger messages
	// will require segmentation and reassembly" (package stream).
	FramePayload int

	// Queue geometry (slots). SendSlots and RecvSlots live in the 128 KB
	// LANai memory, HostRecvSlots in the pinned host DMA region. The
	// all-DMA staging depth is lanai.DefaultQueues'.
	SendSlots     int
	RecvSlots     int
	HostRecvSlots int

	// WindowSlots is the reject-region capacity: the maximum number of
	// outstanding (unacknowledged) packets a sender may have in the
	// network. Sender buffering is proportional to this, not to the
	// number of hosts (the paper's scalability argument).
	WindowSlots int
	// AckBatch is how many accepted packets a receiver accumulates
	// before emitting a standalone acknowledgement (acks also flush when
	// the receive queue drains, and piggyback on any outgoing data).
	AckBatch int
	// RejectThreshold is the host receive queue backlog above which
	// Extract bounces excess data packets back to their senders
	// (rejection is implemented at the host, Section 5). Zero disables
	// rejection.
	RejectThreshold int
	// RetryDelay is how long a rejected packet waits in the reject queue
	// before retransmission.
	RetryDelay sim.Duration
	// DrainLimit caps packets processed per Extract call; zero means
	// drain everything available. Small values model a slow consumer.
	DrainLimit int

	// CheckInvariants enables exactly-once assertions (tests).
	CheckInvariants bool
}

// maxHandlers sizes every endpoint's handler table.
const maxHandlers = 64

// DefaultConfig returns full FM 1.0: streamed LCP, hybrid SBus use,
// buffer management, return-to-sender flow control, 128-byte frames,
// and lanai.DefaultQueues' slot counts.
func DefaultConfig() Config {
	q := lanai.DefaultQueues(0)
	return Config{
		SBusMode:        Hybrid,
		BufferMgmt:      true,
		FlowControl:     true,
		Aggregate:       true,
		PiggybackAcks:   true,
		FramePayload:    128,
		SendSlots:       q.SendSlots,
		RecvSlots:       q.RecvSlots,
		HostRecvSlots:   q.HostRecvSlots,
		WindowSlots:     128,
		WindowPerDest:   16,
		AckBatch:        16,
		RejectThreshold: 192,
		RetryDelay:      50 * sim.Microsecond,
	}
}

// VestigialConfig returns the minimal Fig. 4 layer: streamed LCP plus the
// chosen SBus architecture, no buffer-management costs, no flow control.
func VestigialConfig(mode SBusMode) Config {
	c := DefaultConfig()
	c.SBusMode = mode
	c.BufferMgmt = false
	c.FlowControl = false
	c.PiggybackAcks = false
	c.RejectThreshold = 0
	return c
}

// WithFrame returns c resized for a different frame payload, keeping the
// LANai queue footprint within the 128 KB card memory.
func (c Config) WithFrame(payload int) Config {
	c.FramePayload = payload
	// Keep (Send+Recv) * frame under the card budget with headroom.
	frame := payload + 32
	maxSlots := (lanai.MemoryBytes - 16<<10) / frame
	if c.SendSlots+c.RecvSlots > maxSlots {
		c.SendSlots = maxSlots / 3
		c.RecvSlots = maxSlots - c.SendSlots
	}
	return c
}

// Queues derives the device queue geometry from the layer config:
// lanai.DefaultQueues at this frame size with the config's slot counts.
func (c Config) Queues(p *cost.Params) lanai.QueueConfig {
	q := lanai.DefaultQueues(c.FramePayload + p.FMHeaderBytes)
	q.SendSlots, q.RecvSlots, q.HostRecvSlots = c.SendSlots, c.RecvSlots, c.HostRecvSlots
	return q
}

// LCPOptions derives the control-program configuration for this layer.
func (c Config) LCPOptions(p *cost.Params) lcp.Options {
	o := lcp.Options{
		Streamed:     true,
		Interpret:    c.Interpret,
		HostDelivery: true,
		Aggregate:    c.Aggregate,
	}
	if c.SBusMode == AllDMA {
		o.Source = lcp.FromHostDMA
	} else {
		o.Source = lcp.FromSendQueue
	}
	if c.BufferMgmt {
		o.ExtraInstrPerPacket = p.LCPFMExtraInstr
	}
	return o
}
