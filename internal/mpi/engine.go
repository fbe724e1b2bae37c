// Package mpi implements an MPI-style message-passing layer on top of
// the FM 1.0 API — the paper's first stated target: "FM is designed to
// support efficient implementation of a variety of communication
// libraries"; MPI heads the list in Section 7, and the historical
// follow-on (MPI-FM, Lauria & Chien) quantified exactly what such a
// layering costs. This package reproduces that layer in simulation:
//
//   - Tagged message matching with the canonical two queues — a
//     posted-receive queue and an unexpected-message queue — with MPI's
//     non-overtaking guarantee per (source, communicator).
//   - Communicators with rank translation: World spans the cluster;
//     Split carves disjoint sub-groups whose ranks are renumbered.
//   - Blocking Send/Recv and nonblocking Isend/Irecv with Wait;
//     receives may use AnySource and AnyTag wildcards.
//   - Collectives (Barrier, Bcast, Reduce, Allreduce) built on the
//     matching engine itself.
//
// Messages of any size are segmented into FM frames and reassembled;
// because FM's return-to-sender flow control may reorder frames, the
// engine resequences fragments per source before matching, so the MPI
// ordering guarantee holds even when the transport reorders.
//
// Everything above FM_send/FM_extract costs host CPU time (header
// builds, copies, queue scans), so the fmbench "mpi" experiment can
// measure the classic cost of layering against raw FM.
package mpi

import (
	"encoding/binary"
	"fmt"

	"fm/internal/core"
	"fm/internal/sim"
)

// Wildcards accepted by receive envelopes. A wildcard tag matches only
// application tags (>= 0), never the negative tags the collectives use
// internally.
const (
	AnySource = -1
	AnyTag    = -1
)

// HeaderBytes is the MPI envelope prepended to every FM frame:
// [ctx u32][tag i32][msgSeq u32][segIdx u16][segCount u16][fragSeq u32].
const HeaderBytes = 20

// Host-CPU charges for the layer's software, modeled on the MPI-FM
// measurements (matching and request bookkeeping dominate; they are why
// MPI-on-FM's t0 exceeds raw FM's by a few microseconds).
const (
	// matchCost is charged per received fragment: header parse plus the
	// posted/unexpected queue scan.
	matchCost = 800 * sim.Nanosecond
	// postCost is charged per request posted or completed: envelope
	// construction and request bookkeeping.
	postCost = 600 * sim.Nanosecond
)

// fragment is one parsed wire frame.
type fragment struct {
	ctx      uint32
	tag      int
	msgSeq   uint32
	segIdx   int
	segCount int
	body     []byte
}

// srcChannel resequences fragments from one source node: FM delivery is
// reliable but unordered (rejection and retransmission), while MPI
// matching needs arrival order to equal send order.
type srcChannel struct {
	next    uint32
	pending map[uint32]fragment
}

// Engine is one node's MPI progress engine: it owns an FM handler,
// resequences inbound fragments, and dispatches them to communicators
// by context id.
type Engine struct {
	ep      *core.Endpoint
	handler int
	comms   map[uint32]*Comm
	// orphans holds fragments for contexts not yet registered (a peer
	// raced ahead through a Split); drained at registration.
	orphans map[uint32][]pendingFrag
	// sendFrag / recvChan implement per-peer fragment resequencing.
	sendFrag map[int]uint32
	recvChan map[int]*srcChannel
}

type pendingFrag struct {
	srcNode int
	frag    fragment
}

// newEngine attaches a progress engine to ep, owning FM handler id h.
func newEngine(ep *core.Endpoint, h int) *Engine {
	e := &Engine{
		ep:       ep,
		handler:  h,
		comms:    make(map[uint32]*Comm),
		orphans:  make(map[uint32][]pendingFrag),
		sendFrag: make(map[int]uint32),
		recvChan: make(map[int]*srcChannel),
	}
	ep.RegisterHandler(h, e.onMessage)
	return e
}

// maxData is the payload capacity of one fragment.
func (e *Engine) maxData() int {
	n := e.ep.Config().FramePayload - HeaderBytes
	if n <= 0 {
		panic("mpi: frame too small for the MPI envelope")
	}
	return n
}

// register binds a communicator to its context id, draining any
// fragments that arrived before the local Split caught up.
func (e *Engine) register(c *Comm) {
	if _, dup := e.comms[c.ctx]; dup {
		panic(fmt.Sprintf("mpi: duplicate context %d on node %d", c.ctx, e.ep.NodeID()))
	}
	e.comms[c.ctx] = c
	for _, p := range e.orphans[c.ctx] {
		c.acceptFrag(p.srcNode, p.frag)
	}
	delete(e.orphans, c.ctx)
}

// sendFragments segments data toward a destination node under the given
// envelope, charging the header-build/copy cost of each frame.
func (e *Engine) sendFragments(dstNode int, ctx uint32, tag int, msgSeq uint32, data []byte) {
	maxData := e.maxData()
	segs := 1
	if len(data) > 0 {
		segs = (len(data) + maxData - 1) / maxData
	}
	if segs > 1<<16-1 {
		panic(fmt.Sprintf("mpi: message of %d bytes needs %d segments (max 65535)", len(data), segs))
	}
	for s := 0; s < segs; s++ {
		lo := s * maxData
		hi := lo + maxData
		if hi > len(data) {
			hi = len(data)
		}
		frame := make([]byte, HeaderBytes+hi-lo)
		binary.LittleEndian.PutUint32(frame[0:], ctx)
		binary.LittleEndian.PutUint32(frame[4:], uint32(int32(tag)))
		binary.LittleEndian.PutUint32(frame[8:], msgSeq)
		binary.LittleEndian.PutUint16(frame[12:], uint16(s))
		binary.LittleEndian.PutUint16(frame[14:], uint16(segs))
		binary.LittleEndian.PutUint32(frame[16:], e.sendFrag[dstNode])
		e.sendFrag[dstNode]++
		copy(frame[HeaderBytes:], data[lo:hi])
		// The layer's staging copy (FM then copies again off this
		// buffer — the double copy is part of the cost of layering).
		e.ep.CPU().Memcpy(len(frame))
		if err := e.ep.Send(dstNode, e.handler, frame); err != nil {
			panic(fmt.Sprintf("mpi: send to node %d: %v", dstNode, err))
		}
	}
}

// onMessage is the FM handler: parse, resequence per source, dispatch.
// It runs inside FM_extract on the receiving host process.
func (e *Engine) onMessage(srcNode int, payload []byte) {
	if len(payload) < HeaderBytes {
		panic("mpi: runt fragment")
	}
	e.ep.CPU().Advance(matchCost)
	f := fragment{
		ctx:      binary.LittleEndian.Uint32(payload[0:]),
		tag:      int(int32(binary.LittleEndian.Uint32(payload[4:]))),
		msgSeq:   binary.LittleEndian.Uint32(payload[8:]),
		segIdx:   int(binary.LittleEndian.Uint16(payload[12:])),
		segCount: int(binary.LittleEndian.Uint16(payload[14:])),
		// The FM buffer dies with the handler: copy the body out.
		body: append([]byte(nil), payload[HeaderBytes:]...),
	}
	e.ep.CPU().Memcpy(len(f.body))
	fragSeq := binary.LittleEndian.Uint32(payload[16:])

	ch := e.recvChan[srcNode]
	if ch == nil {
		ch = &srcChannel{pending: make(map[uint32]fragment)}
		e.recvChan[srcNode] = ch
	}
	if fragSeq != ch.next {
		// Transport reordering (a rejected-then-retransmitted frame):
		// park until the gap fills.
		ch.pending[fragSeq] = f
		return
	}
	e.dispatch(srcNode, f)
	ch.next++
	for {
		nf, ok := ch.pending[ch.next]
		if !ok {
			return
		}
		delete(ch.pending, ch.next)
		e.dispatch(srcNode, nf)
		ch.next++
	}
}

// dispatch hands one in-order fragment to its communicator.
func (e *Engine) dispatch(srcNode int, f fragment) {
	c, ok := e.comms[f.ctx]
	if !ok {
		e.orphans[f.ctx] = append(e.orphans[f.ctx], pendingFrag{srcNode: srcNode, frag: f})
		return
	}
	c.acceptFrag(srcNode, f)
}

// progress pumps the FM layer once: wait for host work, extract.
func (e *Engine) progress() {
	e.ep.WaitIncoming()
	e.ep.Extract()
}
