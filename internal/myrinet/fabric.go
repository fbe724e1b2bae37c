package myrinet

import (
	"fmt"

	"fm/internal/cost"
	"fm/internal/sim"
)

// Sink receives packets delivered to a node port. The LANai device
// implements it; Arrive is invoked (in event context) at the instant the
// packet tail has fully crossed the final link.
type Sink interface {
	Arrive(p *Packet)
}

// SinkFunc adapts a function to the Sink interface.
type SinkFunc func(p *Packet)

// Arrive calls f(p).
func (f SinkFunc) Arrive(p *Packet) { f(p) }

// Switch is a Myrinet crossbar. Each output port is a serially-reusable
// resource: wormhole cut-through means a packet occupies an output for
// exactly its wire time, and two packets contending for the same output
// serialize (the blocked worm stalls in the network).
type Switch struct {
	ports []sim.Resource // one per output port, a window of the fabric's port slice
}

// Ports returns the number of ports on the crossbar.
func (s *Switch) Ports() int { return len(s.ports) }

// OutputUtilization returns the utilization of output port i.
func (s *Switch) OutputUtilization(i int) float64 { return s.ports[i].Utilization() }

// hop is one step of a precomputed source route: the switch to cross
// (by index in topology declaration order) and the output port to leave
// through. Routes carry indices, not *Switch pointers, so a route
// resolved on one shard's fabric replica is valid on every other
// shard's (sharded runs build one Fabric per shard from the same
// topology). The fields are byte-packed — 8 bytes per hop instead of
// 16 — because cached BFS routes are the dominant per-pair state on
// large fabrics; Topology.Validate rejects geometries that overflow
// the packed widths (2^32 switches, 2^16 ports per switch).
type hop struct {
	sw   uint32
	port uint16
}

// Stats aggregates fabric-level traffic counters. Packet counts are
// attributed to the injecting (source-owning) shard; the Cross counters
// measure shard-boundary traffic in a sharded run and stay zero in a
// single-kernel one.
type Stats struct {
	Packets      uint64
	PayloadBytes uint64
	WireBytes    uint64
	ByType       [5]uint64

	// CrossPosted counts packet continuations this shard handed to
	// another shard; CrossResumed counts continuations received.
	CrossPosted  uint64
	CrossResumed uint64
}

// Fabric is the assembled network: node ports, switches, links, and the
// source router. Construct with NewFabric from an arbitrary Topology, or
// with the canned NewCrossbar / NewLine / NewClos builders.
type Fabric struct {
	k        *sim.Kernel
	p        *cost.Params
	topo     *Topology
	sinks    []Sink
	uplinks  []sim.Resource // node i -> first switch
	router   *router
	switches []Switch
	stats    Stats

	// pool is the fabric-wide packet free list. One simulation is one
	// goroutine, so no locking; recycled packets keep their payload/ack
	// buffer capacity, making the steady-state packet path allocation-free.
	// In a sharded run each shard's fabric replica has its own pool, and
	// a packet that crossed shards recycles into the pool of the shard
	// that delivered it.
	pool []*Packet

	// deliverFn is the shared delivery event callback (arg = *Packet),
	// allocated once so Inject schedules deliveries without a closure.
	deliverFn func(any)

	// faults is the installed fault timeline, nil on a healthy fabric —
	// every fault check in the packet path is guarded by that nil, so a
	// faultless run pays nothing. faultToggleFn is the shared toggle
	// event callback (arg = toggleArg), allocated once like deliverFn.
	faults        *faultState
	faultToggleFn func(any)

	// Sharded-run binding (nil/zero on a single-kernel fabric): this
	// replica simulates the switches part assigns to shard, and hands
	// packet continuations that reach another shard's switch to post,
	// which schedules them on the owning shard's replica.
	part  *Partition
	shard int
	post  func(owner int, at sim.Time, pkt *Packet)
}

// NewPacket returns a packet for injection into this fabric, recycled
// from the free list when possible. The caller owns it until the fabric
// delivers it to a sink; whoever consumes it hands it back with Release.
func (f *Fabric) NewPacket() *Packet {
	if n := len(f.pool); n > 0 {
		p := f.pool[n-1]
		f.pool[n-1] = nil
		f.pool = f.pool[:n-1]
		p.pooled = false
		return p
	}
	return &Packet{}
}

// Release returns a consumed packet (and its payload buffer) to the free
// list. The caller must hold the only live reference: a packet may not be
// released while queued, in flight, or before its handler has returned.
// Releasing twice panics, as it indicates an ownership bug.
func (f *Fabric) Release(p *Packet) {
	if p.pooled {
		panic(fmt.Sprintf("myrinet: double release of packet %v", p))
	}
	p.reset()
	p.pooled = true
	f.pool = append(f.pool, p)
}

// NewFabric compiles a Topology into a live fabric on the given kernel:
// it instantiates every switch's output-port resources, one uplink per
// node, and the full source-routing table (shortest path for every
// ordered node pair). The topology must be valid and fully connected;
// violations panic, since they are construction-time programming errors.
func NewFabric(k *sim.Kernel, p *cost.Params, t *Topology) *Fabric {
	if err := t.Validate(); err != nil {
		panic(err.Error())
	}
	if len(t.nodes) == 0 {
		panic("myrinet: topology has no nodes")
	}
	f := &Fabric{k: k, p: p, topo: t, sinks: make([]Sink, len(t.nodes))}
	// Every switch's output ports share one slice, and the uplinks
	// another: two allocations for the fabric's resources whatever its
	// size, and a hop reaches its port through two slice indexes.
	nports := 0
	for _, spec := range t.switches {
		nports += spec.ports
	}
	ports := sim.Resources(k, nports)
	f.switches = make([]Switch, len(t.switches))
	for i, spec := range t.switches {
		f.switches[i].ports, ports = ports[:spec.ports:spec.ports], ports[spec.ports:]
	}
	f.uplinks = sim.Resources(k, len(t.nodes))
	f.router = t.newRouter()
	f.deliverFn = func(a any) {
		pkt := a.(*Packet)
		if fs := f.faults; fs != nil && (pkt.Corrupt || fs.activeAt(NodeFault, pkt.Dst, f.k.Now())) {
			// The receiving interface detects the corruption (link-level
			// CRC) or is down: turn the frame around at the delivery
			// switch instead of delivering it.
			f.faultTurn(pkt, f.topo.nodes[pkt.Dst].sw, f.k.Now())
			return
		}
		if !pkt.Verify() {
			panic(fmt.Sprintf("myrinet: frame %v corrupted in flight (payload aliased?)", pkt))
		}
		f.sinks[pkt.Dst].Arrive(pkt)
	}
	f.faultToggleFn = f.faultToggle
	return f
}

// NewCrossbar builds the paper's measurement fabric: n nodes on a single
// crossbar switch ("All measurements were taken on an 8-port Myrinet
// switch", Section 4.1). n must not exceed ports (CrossbarCheck).
func NewCrossbar(k *sim.Kernel, p *cost.Params, n, ports int) *Fabric {
	if err := CrossbarCheck(n, ports); err != nil {
		panic(err.Error())
	}
	t := NewTopology()
	sw := t.AddSwitch("sw0", ports)
	for i := 0; i < n; i++ {
		t.AttachNode(sw, i)
	}
	// A crossbar is the degenerate one-leaf Clos: every route is the
	// single delivery hop, so the formulaic fast path applies.
	t.form = &closForm{leaves: 1, spines: 0, npl: n}
	return NewFabric(k, p, t)
}

// CrossbarCheck reports whether NewCrossbar can build n nodes on one
// switch of the given port count: the nodes must fit, and the ports
// must be within the packed-route width. NewCrossbar panics on exactly
// these conditions.
func CrossbarCheck(n, ports int) error {
	if n > ports {
		return fmt.Errorf("myrinet: %d nodes exceed %d switch ports", n, ports)
	}
	if ports > maxPackedPorts {
		return fmt.Errorf("myrinet: %d ports per switch exceed the packed-route limit %d", ports, maxPackedPorts)
	}
	return nil
}

// NewLine builds a linear multi-switch fabric: nodesPerSwitch nodes hang
// off each of nSwitches crossbars, with neighboring crossbars connected
// by one link in each direction. It exercises multi-hop source routing
// and per-hop switch latency.
//
// Port convention per switch: 0..nodesPerSwitch-1 local nodes,
// nodesPerSwitch = toward lower switches, nodesPerSwitch+1 = toward
// higher switches.
func NewLine(k *sim.Kernel, p *cost.Params, nSwitches, nodesPerSwitch, ports int) *Fabric {
	if nodesPerSwitch+2 > ports {
		panic("myrinet: not enough ports for nodes plus trunk links")
	}
	t := NewTopology()
	for i := 0; i < nSwitches; i++ {
		t.AddSwitch(fmt.Sprintf("sw%d", i), ports)
	}
	left, right := nodesPerSwitch, nodesPerSwitch+1
	for s := 0; s < nSwitches; s++ {
		for j := 0; j < nodesPerSwitch; j++ {
			t.AttachNode(s, j)
		}
		if s > 0 {
			t.Link(s, left, s-1)
		}
		if s < nSwitches-1 {
			t.Link(s, right, s+1)
		}
	}
	return NewFabric(k, p, t)
}

// Nodes returns the number of node ports.
func (f *Fabric) Nodes() int { return len(f.sinks) }

// Hops returns the number of switch crossings between src and dst.
func (f *Fabric) Hops(src, dst int) int {
	if src == dst {
		return 0
	}
	return len(f.router.route(src, dst))
}

// NumSwitches returns the number of switches in the fabric.
func (f *Fabric) NumSwitches() int { return len(f.switches) }

// SwitchAt returns switch i, in topology declaration order.
func (f *Fabric) SwitchAt(i int) *Switch { return &f.switches[i] }

// Topology returns the fabric's topology description. Sharded runs use
// it to compute the partition once and apply it to every replica (the
// builders are deterministic, so replicas of one spec share switch and
// node numbering).
func (f *Fabric) Topology() *Topology { return f.topo }

// Attach registers the sink that receives packets addressed to node id.
func (f *Fabric) Attach(id int, s Sink) { f.sinks[id] = s }

// HintRoutes pre-sizes the demand-filled route cache for an expected
// number of distinct (source switch, destination node) entries, so a
// workload that touches many pairs fills the cache without incremental
// map growth. A hint after entries exist is ignored; the cache works
// identically (just with rehashes) if no hint is ever given.
func (f *Fabric) HintRoutes(routes int) { f.router.hintRoutes(routes) }

// Stats returns a copy of the traffic counters.
func (f *Fabric) Stats() Stats { return f.stats }

// Inject sends p from its source node toward its destination, starting at
// the current instant (the caller has already charged DMA setup). It
// returns the time at which the source's outgoing channel is free again
// (tail has left the host interface); the packet is delivered to the
// destination sink by a scheduled event when its tail arrives.
//
// Timing follows Appendix A: the head incurs SwitchLatency per crossbar;
// each link carries the frame for WireBytes * 12.5 ns; contention at any
// switch output serializes FIFO.
func (f *Fabric) Inject(p *Packet) sim.Time {
	if p.Src == p.Dst || p.Src < 0 || p.Dst < 0 || p.Src >= len(f.sinks) || p.Dst >= len(f.sinks) {
		panic(fmt.Sprintf("myrinet: no route %d->%d", p.Src, p.Dst))
	}
	if p.pooled {
		panic(fmt.Sprintf("myrinet: inject of released packet %v", p))
	}
	var route []hop
	if f.faults != nil {
		route = f.router.routeFrom(f.topo.nodes[p.Src].sw, p.Dst)
	} else {
		route = f.router.route(p.Src, p.Dst)
	}
	if f.sinks[p.Dst] == nil && f.part.Owner(p.Dst) == f.shard {
		panic(fmt.Sprintf("myrinet: node %d has no sink attached", p.Dst))
	}
	p.Seal()
	if p.Injected == 0 {
		p.Injected = f.k.Now()
	}
	wire := sim.Duration(p.WireBytes()) * f.p.LinkByte

	f.stats.Packets++
	f.stats.PayloadBytes += uint64(len(p.Payload))
	f.stats.WireBytes += uint64(p.WireBytes())
	if int(p.Type) < len(f.stats.ByType) {
		f.stats.ByType[p.Type]++
	}

	// Source uplink, then the switch hops.
	head, srcDone := f.uplinks[p.Src].Reserve(wire)
	if f.faults != nil && (route == nil || f.faults.activeAt(NodeFault, p.Src, f.k.Now())) {
		// No healthy path exists right now (or the source interface is
		// itself inside a churn window): the interface turns the frame
		// straight around, as if the fabric bounced it at the first hop.
		// Charging a round trip through the delivery switch keeps the
		// immediate-reject timing in the same regime as a real bounce.
		f.faults.stats.Unroutable++
		f.flipBounce(p)
		f.k.AtArg(head.Add(wire).Add(2*f.p.SwitchLatency), f.deliverFn, p)
		return srcDone
	}
	f.forward(p, route, 0, head.Add(f.p.SwitchLatency), wire)
	return srcDone
}

// forward advances the packet head across route[i:], the head becoming
// eligible at hop i's output port at `eligible` (one SwitchLatency
// after it entered that crossbar); FIFO contention at any output may
// delay it further. On a sharded fabric, a hop whose switch belongs to
// another shard ends the local walk: the continuation is posted to the
// owning shard's replica at the eligible instant, which is at least one
// SwitchLatency — the lookahead window — in the future. The final local
// hop schedules tail delivery.
func (f *Fabric) forward(p *Packet, route []hop, i int, eligible sim.Time, wire sim.Duration) {
	var head sim.Time
	for {
		h := route[i]
		if f.part != nil && f.part.SwitchShard[h.sw] != f.shard {
			p.xsw = int(h.sw)
			f.stats.CrossPosted++
			f.post(f.part.SwitchShard[h.sw], eligible, p)
			return
		}
		if fs := f.faults; fs != nil {
			// Fault checks are evaluated at the head-arrival instant of
			// each hop: forward schedules the whole walk at inject time,
			// so a component that dies while the worm is mid-flight must
			// be caught by the timeline, not by current state.
			if fs.activeAt(SwitchFault, int(h.sw), eligible) {
				f.faultTurn(p, int(h.sw), eligible)
				return
			}
			if li := fs.portLink[h.sw][h.port]; li >= 0 {
				next := f.topo.links[li].to
				if fs.activeAt(LinkFault, li, eligible) || fs.activeAt(SwitchFault, next, eligible) {
					f.faultTurn(p, int(h.sw), eligible)
					return
				}
				if !p.Bounced {
					// Loss and corruption bursts hit data traffic only;
					// bounces are control frames the model keeps clean so
					// a fault can never silently strand a packet.
					if fs.activeAt(LossBurst, li, eligible) {
						fs.stats.Lost++
						f.faultTurn(p, int(h.sw), eligible)
						return
					}
					if fs.activeAt(CorruptBurst, li, eligible) && !p.Corrupt {
						p.Corrupt = true
						fs.stats.Corrupted++
					}
				}
			}
		}
		head, _ = f.switches[h.sw].ports[h.port].ReserveAt(eligible, wire)
		i++
		if i == len(route) {
			break
		}
		eligible = head.Add(f.p.SwitchLatency)
	}
	f.k.AtArg(head.Add(wire), f.deliverFn, p)
}

// ResumeCross continues a packet whose head reached a shard boundary:
// the owning shard resolves a route from the boundary switch and walks
// on. Candidate selection is memoryless (it depends only on the current
// switch, the destination, and the distance map), so on a healthy
// fabric the resolved route is exactly the suffix of the source route —
// byte-identical to resuming the original. Under faults the fresh
// resolution is what reroutes a mid-flight packet around a component
// that died after injection. The signature matches the kernel's
// argument-event form so the owning shard's drain can schedule it
// directly.
func (f *Fabric) ResumeCross(a any) {
	p := a.(*Packet)
	f.stats.CrossResumed++
	route := f.router.routeFrom(p.xsw, p.Dst)
	wire := sim.Duration(p.WireBytes()) * f.p.LinkByte
	if route == nil {
		f.faultTurn(p, p.xsw, f.k.Now())
		return
	}
	f.forward(p, route, 0, f.k.Now(), wire)
}

// flipBounce turns a frame around in place: it becomes a Reject aimed
// back at its own sender, remembering the original kind so the sender's
// endpoint can restore it for retransmission. Any corruption picked up
// on the way out is cleared — the bounce is a fresh control frame — and
// the frame is re-sealed over the swapped header.
func (f *Fabric) flipBounce(p *Packet) {
	p.Bounced = true
	p.OrigType = p.Type
	p.Type = Reject
	p.Src, p.Dst = p.Dst, p.Src
	p.Corrupt = false
	p.Seal()
}

// faultTurn handles a packet whose head hit a failed component at
// switch sw: the fabric bounces it back to its sender as a Reject. A
// frame that is already a bounce is never bounced again (its "sender"
// is the original destination, which may itself be unreachable);
// instead it is stranded and retried at every recovery toggle, so a
// plan whose fault windows all close guarantees eventual delivery.
func (f *Fabric) faultTurn(p *Packet, sw int, at sim.Time) {
	fs := f.faults
	if p.Bounced {
		fs.stats.Stranded++
		fs.stranded = append(fs.stranded, strandedPkt{pkt: p, sw: sw})
		return
	}
	fs.stats.Bounced++
	f.flipBounce(p)
	route := f.router.routeFrom(sw, p.Dst)
	if route == nil {
		fs.stats.Stranded++
		fs.stranded = append(fs.stranded, strandedPkt{pkt: p, sw: sw})
		return
	}
	wire := sim.Duration(p.WireBytes()) * f.p.LinkByte
	f.forward(p, route, 0, at.Add(f.p.SwitchLatency), wire)
}

// FaultStats returns a copy of the fault counters (zero value when no
// fault plan is installed). In a sharded run each replica counts the
// events it owns; callers merge replica stats with FaultStats.Merge.
func (f *Fabric) FaultStats() FaultStats {
	if f.faults == nil {
		return FaultStats{}
	}
	return f.faults.stats
}

// PendingStranded returns the number of bounced frames still parked at
// a failed component waiting for a recovery toggle. A run that drains
// to zero with PendingStranded > 0 lost traffic to a fault window that
// never closed; resilience tests assert it is zero.
func (f *Fabric) PendingStranded() int {
	if f.faults == nil {
		return 0
	}
	return len(f.faults.stranded)
}

// SetShard binds this fabric replica to one shard of a partitioned
// topology: it simulates only the switches part assigns to shard, and
// hands continuations that reach another shard's switch to post. Every
// replica of the topology must be bound before traffic flows, and
// injections must happen on the shard owning the packet's source node.
func (f *Fabric) SetShard(part *Partition, shard int, post func(owner int, at sim.Time, pkt *Packet)) {
	if part.Shards <= shard || shard < 0 {
		panic(fmt.Sprintf("myrinet: shard %d out of range for %d-shard partition", shard, part.Shards))
	}
	if len(part.NodeShard) != len(f.sinks) || len(part.SwitchShard) != len(f.switches) {
		panic("myrinet: partition does not match this fabric's topology")
	}
	f.part, f.shard, f.post = part, shard, post
}

// MinLatency returns the no-contention tail-delivery latency from src to
// dst for a frame of wireBytes, per the Appendix A model: with wormhole
// cut-through and equal link rates, the per-link wire times of a
// multi-hop path overlap perfectly, so the pipeline collapses to a
// single wire time plus SwitchLatency for each switch crossed —
// delivery = wireBytes*LinkByte + Hops(src,dst)*SwitchLatency after
// injection. Contention at any switch output can only add to this.
func (f *Fabric) MinLatency(src, dst, wireBytes int) sim.Duration {
	hops := f.Hops(src, dst)
	return sim.Duration(wireBytes)*f.p.LinkByte + sim.Duration(hops)*f.p.SwitchLatency
}
