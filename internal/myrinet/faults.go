package myrinet

import (
	"fmt"
	"sort"

	"fm/internal/sim"
)

// Fault injection. A fault plan is a static set of component outage
// windows installed on the fabric before traffic flows: links, switches,
// and node interfaces go down and recover at fixed virtual instants, and
// links can run loss or corruption bursts. Because the timeline is data
// (not mutable state flipped by events), a forwarding decision can ask
// "will this link be down when the packet head crosses it?" for a future
// instant — which is how packets already in flight when a component dies
// are caught at the dead hop instead of sailing through.
//
// Invariants the model maintains (DESIGN.md "Fault model"):
//
//   - No frame is ever silently lost. A frame that cannot cross a hop
//     (dead link/switch, loss burst) or cannot be delivered (down node,
//     corruption detected at the interface) is flipped into a Reject
//     aimed back at its sender and routed there through the fabric; the
//     sender's endpoint parks it and retransmits (core.Endpoint). A
//     bounce that itself cannot be routed is stranded on the detecting
//     replica and re-attempted at every recovery toggle, so a plan whose
//     every window closes always quiesces with zero undelivered frames.
//   - Bounced frames are control traffic: they are exempt from loss and
//     corruption bursts and are never bounced again — an undeliverable
//     bounce strands instead, which is what bounds the bounce depth.
//   - Route resolution adapts to the state *now*: the route caches are
//     invalidated at every link/switch toggle and the next resolution
//     runs BFS over the currently-healthy subgraph only (topology.go
//     routeFrom). On every shard replica the toggles fire at the same
//     virtual instants on the replica's own kernel, so replicas never
//     disagree about a route and cross-shard merges stay deterministic.
type faultState struct {
	link    [][]window // per link index: down windows, sorted
	swtch   [][]window // per switch index
	node    [][]window // per node id
	loss    [][]window // per link index: loss-burst windows
	corrupt [][]window // per link index: corruption-burst windows

	// portLink maps (switch, output port) to the link index leaving
	// through it, -1 for node-delivery and unused ports.
	portLink [][]int

	// stranded holds bounced frames this replica could not route back
	// to their senders (the sender's side of the fabric was down too);
	// every recovery toggle retries them in arrival order.
	stranded []strandedPkt

	// routeStarts/routeEnds are the sorted boundary instants of every
	// link and switch window (the classes that change the routable
	// graph). routingQuiet counts boundaries at the mapper's lagged
	// view with two binary searches, so the formulaic fast path can ask
	// "is any routing-relevant window active?" in O(log windows)
	// without touching per-component state.
	routeStarts []sim.Time
	routeEnds   []sim.Time

	// k is the owning replica's kernel: the router consults it for the
	// current instant when filtering down components.
	k *sim.Kernel

	stats FaultStats
}

// DetectLag is how long the routing side of the fabric takes to notice
// a link or switch state change: route resolution avoids a component
// only from Start+DetectLag, and trusts it again only from
// End+DetectLag. Myrinet's source routes are computed from a mapper's
// view of the fabric, and that view always trails reality — with an
// instantaneous react the model would reroute every injection around a
// fault the moment it lands, and the retransmit machinery the fault
// plan exists to exercise would never fire. The wire-level truth
// (per-hop checks, delivery checks) uses the unlagged timeline: a
// frame on a dead hop dies at the instant the hop is dead, whether or
// not routing has noticed.
const DetectLag = 25 * sim.Microsecond

// window is one outage interval [start, end) in virtual time.
type window struct{ start, end sim.Time }

type strandedPkt struct {
	pkt *Packet
	sw  int // the switch the frame is parked at
}

// FaultKind selects which component class a FaultWindow targets.
type FaultKind uint8

const (
	// LinkFault takes one directed inter-switch link down.
	LinkFault FaultKind = iota
	// SwitchFault takes a whole switch down (all its ports).
	SwitchFault
	// NodeFault takes a node's network interface down: frames addressed
	// to it bounce at the delivery switch, and its own injections bounce
	// at the source — the node's host keeps running (a NIC outage, not a
	// host crash).
	NodeFault
	// LossBurst drops (bounces) every non-control frame crossing the
	// link during the window.
	LossBurst
	// CorruptBurst marks every non-control frame crossing the link
	// during the window as corrupt; the delivering interface detects it
	// and bounces the frame from the destination switch.
	CorruptBurst
)

// String returns the fault kind mnemonic (the fault-plan text format's
// keywords).
func (k FaultKind) String() string {
	switch k {
	case LinkFault:
		return "link"
	case SwitchFault:
		return "switch"
	case NodeFault:
		return "node"
	case LossBurst:
		return "loss"
	case CorruptBurst:
		return "corrupt"
	default:
		return fmt.Sprintf("FaultKind(%d)", uint8(k))
	}
}

// FaultWindow is one outage: component Index of class Kind is down (or
// bursting) from Start to End in virtual time, End exclusive.
type FaultWindow struct {
	Kind       FaultKind
	Index      int
	Start, End sim.Time
}

// FaultStats counts fabric-level fault activity on this replica. In a
// sharded run, sum the replicas' stats: each event is counted on exactly
// one replica (bounces and strands where detected, toggles on the shard
// owning the component).
type FaultStats struct {
	LinkDowns   uint64 // link outage windows begun
	SwitchDowns uint64 // switch outage windows begun
	NodeDowns   uint64 // node-interface outage windows begun
	Recoveries  uint64 // outage windows ended (all classes)

	Bounced    uint64 // frames turned around at a dead hop or down node
	Lost       uint64 // of Bounced: frames caught by a loss burst
	Corrupted  uint64 // frames marked corrupt by a burst
	Unroutable uint64 // injections bounced at the source (no healthy path)
	Stranded   uint64 // bounces parked for a recovery toggle to release
}

// merge folds o into s (for summing per-shard replicas' counters).
func (s *FaultStats) Merge(o FaultStats) {
	s.LinkDowns += o.LinkDowns
	s.SwitchDowns += o.SwitchDowns
	s.NodeDowns += o.NodeDowns
	s.Recoveries += o.Recoveries
	s.Bounced += o.Bounced
	s.Lost += o.Lost
	s.Corrupted += o.Corrupted
	s.Unroutable += o.Unroutable
	s.Stranded += o.Stranded
}

// Total returns the number of outage/burst windows that began.
func (s FaultStats) Downs() uint64 {
	return s.LinkDowns + s.SwitchDowns + s.NodeDowns
}

// NumLinks returns the number of directed inter-switch links.
func (t *Topology) NumLinks() int { return len(t.links) }

// LinkEnds returns the switch indices link i joins (from -> to).
func (t *Topology) LinkEnds(i int) (from, to int) {
	l := t.links[i]
	return l.from, l.to
}

// HostsNodes reports whether switch sw has nodes attached (a leaf).
func (t *Topology) HostsNodes(sw int) bool { return t.hostsNodes(sw) }

// NumSwitches returns the number of switches.
func (t *Topology) NumSwitches() int { return len(t.switches) }

// NumNodes returns the number of attached nodes.
func (t *Topology) NumNodes() int { return len(t.nodes) }

// ApplyFaults installs a fault timeline on this fabric. Call once,
// before traffic flows; the windows may arrive in any order. Invalid
// component indices or empty windows (End <= Start) panic — fmbench and
// the workload layer validate plans before building fabrics, so an
// invalid window here is a programming error. In a sharded run every
// replica applies the identical timeline: the per-hop checks and cache
// invalidations then agree across shards by construction.
func (f *Fabric) ApplyFaults(ws []FaultWindow) {
	if len(ws) == 0 {
		return
	}
	if f.faults != nil {
		panic("myrinet: ApplyFaults called twice")
	}
	t := f.topo
	fs := &faultState{
		k:       f.k,
		link:    make([][]window, len(t.links)),
		swtch:   make([][]window, len(t.switches)),
		node:    make([][]window, len(t.nodes)),
		loss:    make([][]window, len(t.links)),
		corrupt: make([][]window, len(t.links)),
	}
	fs.portLink = make([][]int, len(t.switches))
	for sw, spec := range t.switches {
		fs.portLink[sw] = make([]int, spec.ports)
		for p := range fs.portLink[sw] {
			fs.portLink[sw][p] = -1
		}
	}
	for i, l := range t.links {
		fs.portLink[l.from][l.port] = i
	}

	for _, w := range ws {
		if w.End <= w.Start {
			panic(fmt.Sprintf("myrinet: fault window %s %d [%v,%v) is empty", w.Kind, w.Index, w.Start, w.End))
		}
		var per [][]window
		switch w.Kind {
		case LinkFault:
			per = fs.link
		case SwitchFault:
			per = fs.swtch
		case NodeFault:
			per = fs.node
		case LossBurst:
			per = fs.loss
		case CorruptBurst:
			per = fs.corrupt
		default:
			panic(fmt.Sprintf("myrinet: unknown fault kind %d", w.Kind))
		}
		if w.Index < 0 || w.Index >= len(per) {
			panic(fmt.Sprintf("myrinet: fault window %s %d out of range (%d components)", w.Kind, w.Index, len(per)))
		}
		per[w.Index] = append(per[w.Index], window{start: w.Start, end: w.End})
	}
	for _, per := range [][][]window{fs.link, fs.swtch, fs.node, fs.loss, fs.corrupt} {
		for _, wins := range per {
			sort.Slice(wins, func(i, j int) bool { return wins[i].start < wins[j].start })
		}
	}
	for _, per := range [][][]window{fs.link, fs.swtch} {
		for _, wins := range per {
			for _, w := range wins {
				fs.routeStarts = append(fs.routeStarts, w.start)
				fs.routeEnds = append(fs.routeEnds, w.end)
			}
		}
	}
	sort.Slice(fs.routeStarts, func(i, j int) bool { return fs.routeStarts[i] < fs.routeStarts[j] })
	sort.Slice(fs.routeEnds, func(i, j int) bool { return fs.routeEnds[i] < fs.routeEnds[j] })
	f.faults = fs
	f.router.fs = fs

	// Schedule the toggle events. Link and switch toggles change the
	// routable graph at detection time (DetectLag after the wire-level
	// transition), so each fires then and flushes the route caches;
	// every recovery toggle additionally retries stranded bounces.
	// Toggle bookkeeping is counted once globally: on the shard owning
	// the component (every shard on a single-kernel fabric).
	for li, wins := range fs.link {
		mine := f.ownsSwitch(f.topo.links[li].from)
		for _, w := range wins {
			f.k.AtArg(w.start.Add(DetectLag), f.faultToggleFn, toggleArg{routing: true, count: mine, kind: LinkFault})
			f.k.AtArg(w.end.Add(DetectLag), f.faultToggleFn, toggleArg{routing: true, recover: true, count: mine})
		}
	}
	for sw, wins := range fs.swtch {
		mine := f.ownsSwitch(sw)
		for _, w := range wins {
			f.k.AtArg(w.start.Add(DetectLag), f.faultToggleFn, toggleArg{routing: true, count: mine, kind: SwitchFault})
			f.k.AtArg(w.end.Add(DetectLag), f.faultToggleFn, toggleArg{routing: true, recover: true, count: mine})
		}
	}
	for id, wins := range fs.node {
		mine := f.part.Owner(id) == f.shard
		for _, w := range wins {
			f.k.AtArg(w.start, f.faultToggleFn, toggleArg{count: mine, kind: NodeFault})
			f.k.AtArg(w.end, f.faultToggleFn, toggleArg{recover: true, count: mine})
		}
	}
}

// ownsSwitch reports whether this replica owns switch sw (always true
// single-kernel).
func (f *Fabric) ownsSwitch(sw int) bool {
	return f.part == nil || f.part.SwitchShard[sw] == f.shard
}

// toggleArg describes one fault toggle event.
type toggleArg struct {
	routing bool // the toggle changes the routable graph
	recover bool // window end (vs. start)
	count   bool // this replica does the stats bookkeeping
	kind    FaultKind
}

// faultToggle runs at each window boundary: flush the route caches when
// the routable graph changed, count the transition once globally, and on
// recovery retry every stranded bounce (the path home may exist now).
func (f *Fabric) faultToggle(a any) {
	arg := a.(toggleArg)
	fs := f.faults
	if arg.routing {
		f.router.invalidate()
	}
	if arg.count {
		if arg.recover {
			fs.stats.Recoveries++
		} else {
			switch arg.kind {
			case LinkFault:
				fs.stats.LinkDowns++
			case SwitchFault:
				fs.stats.SwitchDowns++
			case NodeFault:
				fs.stats.NodeDowns++
			}
		}
	}
	if arg.recover && len(fs.stranded) > 0 {
		f.retryStranded()
	}
}

// retryStranded re-attempts every parked bounce in arrival order.
// Frames that still cannot route stay stranded for the next recovery.
func (f *Fabric) retryStranded() {
	fs := f.faults
	parked := fs.stranded
	fs.stranded = fs.stranded[:0]
	for _, s := range parked {
		rt := f.router.routeFrom(s.sw, s.pkt.Dst)
		if rt == nil {
			fs.stranded = append(fs.stranded, s)
			continue
		}
		wire := sim.Duration(s.pkt.WireBytes()) * f.p.LinkByte
		f.forward(s.pkt, rt, 0, f.k.Now().Add(f.p.SwitchLatency), wire)
	}
}

// at reports whether instant t falls inside any window of the sorted
// list. Lists are tiny (a handful of outages per component), so a
// linear scan beats a binary search's constant.
func at(wins []window, t sim.Time) bool {
	for _, w := range wins {
		if t >= w.end {
			continue
		}
		return t >= w.start
	}
	return false
}

func (fs *faultState) linkDownAt(li int, t sim.Time) bool   { return at(fs.link[li], t) }
func (fs *faultState) switchDownAt(sw int, t sim.Time) bool { return at(fs.swtch[sw], t) }
func (fs *faultState) nodeDownAt(id int, t sim.Time) bool   { return at(fs.node[id], t) }
func (fs *faultState) lossAt(li int, t sim.Time) bool       { return at(fs.loss[li], t) }
func (fs *faultState) corruptAt(li int, t sim.Time) bool    { return at(fs.corrupt[li], t) }

// linkDownNow / switchDownNow are the router's view: the wire state as
// of DetectLag ago, so resolution keeps steering into a fresh fault
// (and away from a fresh recovery) until the mapper's view catches up.
// Caches are flushed at the detection toggles, so a cached route never
// outlives the view it was computed from.
func (fs *faultState) linkDownNow(li int) bool {
	return at(fs.link[li], fs.k.Now().Add(-DetectLag))
}
func (fs *faultState) switchDownNow(sw int) bool {
	return at(fs.swtch[sw], fs.k.Now().Add(-DetectLag))
}

// routingQuiet reports whether, at the mapper's lagged view (DetectLag
// ago), no link or switch window is active — the condition under which
// the formulaic fast path is provably identical to BFS. A window
// counts as active over the closed interval [start, end]: including
// the end instant keeps the boundary on the BFS side at the recovery
// toggle, so route resolutions racing the same-instant cache flush see
// exactly the PR 7 cache semantics. Quietness is a pure function of
// Now() and flips only at the toggle instants, so the fast-path/BFS
// choice can never disagree within an inter-toggle interval.
func (fs *faultState) routingQuiet() bool {
	v := fs.k.Now().Add(-DetectLag)
	begun := sort.Search(len(fs.routeStarts), func(i int) bool { return fs.routeStarts[i] > v })
	over := sort.Search(len(fs.routeEnds), func(i int) bool { return fs.routeEnds[i] >= v })
	return begun == over
}
