// Package myriapi models the Myricom-supplied "Myrinet API" messaging
// layer (version 2.0, March 1995), the paper's comparison baseline
// (Section 4.6, Table 3, Figure 9).
//
// The API is feature-rich where FM is lean: it checksums every message,
// preserves delivery order, continuously remaps the network, manages a
// small number of large buffers, and synchronizes host and LANai
// frequently "to pass buffer pointers back and forth". Each feature is
// modeled as the host/LANai cost the paper attributes to it; the result
// is the baseline's characteristic curve — two-order-of-magnitude higher
// t0 and n1/2 than FM at comparable peak bandwidth.
//
// Two send interfaces are provided, as in the real API:
//
//	myri_cmd_send_imm  ->  Variant SendImm (processor moves the data)
//	myri_cmd_send      ->  Variant SendDMA (data staged for DMA)
package myriapi

import (
	"fmt"

	"fm/internal/cluster"
	"fm/internal/cost"
	"fm/internal/host"
	"fm/internal/lanai"
	"fm/internal/lcp"
	"fm/internal/myrinet"
	"fm/internal/sim"
)

// Variant selects the send interface.
type Variant int

const (
	// SendImm is myri_cmd_send_imm: the host processor moves data to the
	// LANai with programmed I/O.
	SendImm Variant = iota
	// SendDMA is myri_cmd_send: data is pinned, copied to the DMA
	// region, and pulled by the LANai's host-DMA engine.
	SendDMA
)

// Config parameterizes the API layer.
type Config struct {
	Variant Variant
}

const (
	// maxMessage is the largest message the API accepts. The real API
	// "does not support message sizes large enough to accurately measure
	// r_inf" (footnote 3); 4 KB models that ceiling.
	maxMessage = 4096
	// maxHandlers sizes every endpoint's handler table.
	maxHandlers = 64
)

// DefaultConfig returns the API as measured in Figure 9.
func DefaultConfig(v Variant) Config {
	return Config{Variant: v}
}

// Queues returns the API's buffer geometry: "small number of large
// buffers" (Table 3).
func (c Config) Queues(p *cost.Params) lanai.QueueConfig {
	return lanai.QueueConfig{
		FrameBytes:    maxMessage + p.APIHeaderBytes,
		SendSlots:     4,
		RecvSlots:     4,
		HostRecvSlots: 16,
		HostOutSlots:  4,
	}
}

// LCPOptions returns the API's heavier control program: the baseline loop
// structure multiplexing extra work per packet, no aggregation (one large
// buffer per DMA).
func (c Config) LCPOptions(p *cost.Params) lcp.Options {
	o := lcp.Options{
		Streamed:            false,
		HostDelivery:        true,
		Aggregate:           false,
		ExtraInstrPerPacket: p.APILCPExtraInstr,
	}
	if c.Variant == SendDMA {
		o.Source = lcp.FromHostDMA
	} else {
		o.Source = lcp.FromSendQueue
	}
	return o
}

// Endpoint is one node's API interface. It satisfies the same Messenger
// surface as the FM endpoint so the measurement drivers can compare them.
type Endpoint struct {
	cpu *host.CPU
	dev *lanai.Device
	cfg Config
	p   *cost.Params

	handlers []func(src int, payload []byte)
	nextSeq  uint64         // sends so far; also paces remap housekeeping
	lastSeq  map[int]uint64 // per-source in-order enforcement
}

// New creates an endpoint; the caller starts the LCP with
// lcp.Start(dev, cfg.LCPOptions(p)).
func New(cpu *host.CPU, dev *lanai.Device, cfg Config, p *cost.Params) *Endpoint {
	return &Endpoint{
		cpu: cpu, dev: dev, cfg: cfg, p: p,
		handlers: make([]func(int, []byte), maxHandlers),
		lastSeq:  make(map[int]uint64),
	}
}

// NodeID returns this endpoint's node number.
func (ep *Endpoint) NodeID() int { return ep.dev.ID }

// Now returns the current virtual time (for the measurement drivers).
func (ep *Endpoint) Now() sim.Time { return ep.cpu.Now() }

// RegisterHandler installs a receive handler, mirroring the FM surface.
func (ep *Endpoint) RegisterHandler(id int, h func(src int, payload []byte)) {
	ep.handlers[id] = h
}

// Send transmits one message. It blocks until the data has left the user
// buffer, like the real call.
func (ep *Endpoint) Send(dst, handler int, payload []byte) error {
	if len(payload) > maxMessage {
		return fmt.Errorf("myriapi: message %d exceeds API maximum %d", len(payload), maxMessage)
	}
	// Per-message fixed cost: kernel-style entry, route lookup in the
	// auto-maintained map, ordered-send bookkeeping, and the host-LANai
	// buffer-pointer handshake (two expensive status reads).
	ep.cpu.Advance(ep.p.APISendFixed)
	ep.cpu.StatusRead()
	ep.cpu.StatusRead()

	// Continuous automatic remapping (Table 3): periodic housekeeping.
	ep.nextSeq++
	if ep.p.APIRemapEvery > 0 && ep.nextSeq%uint64(ep.p.APIRemapEvery) == 0 {
		ep.cpu.Advance(ep.p.APIRemapCost)
	}

	// Message checksum over the payload (Table 3: fault detection).
	ep.cpu.Advance(sim.Duration(len(payload)) * ep.p.APIChecksumByte)

	pkt := ep.dev.Fab.NewPacket()
	pkt.Src, pkt.Dst = ep.NodeID(), dst
	pkt.Type = myrinet.APIMessage
	pkt.Handler = handler
	pkt.Seq = ep.nextSeq
	pkt.SetPayload(payload)
	pkt.HeaderBytes = ep.p.APIHeaderBytes

	if ep.cfg.Variant == SendDMA {
		ep.cpu.Advance(ep.p.APISendDMAExtra)
		// Pin and translate the touched pages.
		pages := (len(payload) + ep.p.APIPageBytes - 1) / ep.p.APIPageBytes
		if pages < 1 {
			pages = 1
		}
		ep.cpu.Advance(sim.Duration(pages) * ep.p.APIPinPageCost)
		// Scatter-gather descriptors, one per block.
		blocks := (len(payload) + ep.p.APIDescriptorBlock - 1) / ep.p.APIDescriptorBlock
		if blocks < 1 {
			blocks = 1
		}
		ep.cpu.Advance(sim.Duration(blocks) * ep.p.APIDescriptorCost)
		for ep.dev.HostOutQ.Full() {
			ep.cpu.StatusRead()
			if ep.dev.HostOutQ.Full() {
				ep.cpu.Wait(ep.dev.SendFreed)
			}
		}
		ep.cpu.Memcpy(pkt.WireBytes())
		ep.dev.HostOutQ.Push(pkt)
		ep.cpu.ControlWrite()
		ep.cpu.ControlWrite()
	} else {
		for ep.dev.SendQ.Full() {
			ep.cpu.StatusRead()
			if ep.dev.SendQ.Full() {
				ep.cpu.Wait(ep.dev.SendFreed)
			}
		}
		ep.cpu.PIOWrite(pkt.WireBytes())
		ep.dev.SendQ.Push(pkt)
		ep.cpu.ControlWrite()
	}
	ep.dev.HostDoorbell()
	return nil
}

// Extract processes received messages: checksum verification, in-order
// delivery, handler dispatch, and the per-message buffer-pointer
// handshake back to the LANai.
func (ep *Endpoint) Extract() int {
	ep.cpu.Advance(ep.p.HostExtractPoll)
	n := 0
	for !ep.dev.HostRecvQ.Empty() {
		pkt := ep.dev.HostRecvQ.Pop()
		ep.cpu.Advance(ep.p.APIRecvFixed)
		// Verify the checksum over the payload.
		ep.cpu.Advance(sim.Duration(len(pkt.Payload)) * ep.p.APIChecksumByte)
		// Order preservation: a FIFO network plus ordered queues makes
		// this an assertion; the cost is the bookkeeping. A sender
		// numbers its frames across all its peers, so each source's
		// seqs rise strictly but may skip.
		if last := ep.lastSeq[pkt.Src]; pkt.Seq <= last {
			panic(fmt.Sprintf("myriapi: out-of-order delivery from %d: seq %d after %d",
				pkt.Src, pkt.Seq, last))
		}
		ep.lastSeq[pkt.Src] = pkt.Seq
		// Return the buffer pointer to the LANai (frequent, expensive
		// synchronization — the paper's core criticism).
		ep.cpu.ControlWrite()
		ep.dev.HostUpdateRecvConsumed(ep.dev.HostRecvQ.Consumed())

		h := ep.handlers[pkt.Handler]
		if h == nil {
			panic(fmt.Sprintf("myriapi: no handler %d on node %d", pkt.Handler, ep.NodeID()))
		}
		ep.cpu.MemRead(len(pkt.Payload))
		ep.cpu.Advance(ep.p.HostHandlerDispatch)
		h(pkt.Src, pkt.Payload)
		ep.dev.Fab.Release(pkt) // the buffer dies with the handler
		n++
	}
	return n
}

// WaitIncoming blocks until a message is available.
func (ep *Endpoint) WaitIncoming() {
	for ep.dev.HostRecvQ.Empty() {
		ep.cpu.Wait(ep.dev.HostRecvAvail)
	}
}

// Cluster is an n-node machine running the Myrinet API layer.
type Cluster struct {
	*cluster.Hardware
	Cfg Config
	EPs []*Endpoint
}

// NewCluster builds the API cluster on a single crossbar.
func NewCluster(n int, cfg Config, p *cost.Params) *Cluster {
	hw := cluster.NewHardware(n, p, cfg.Queues(p))
	c := &Cluster{Hardware: hw, Cfg: cfg}
	for i := range hw.Devs {
		c.EPs = append(c.EPs, New(hw.CPUs[i], hw.Devs[i], cfg, p))
		lcp.Start(hw.Devs[i], cfg.LCPOptions(p))
	}
	return c
}

// Start launches app as node id's application process.
func (c *Cluster) Start(id int, app func(ep *Endpoint)) {
	ep := c.EPs[id]
	c.CPUs[id].Start(func() { app(ep) })
}
