package myrinet

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"
	"strconv"
	"strings"

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
	// wins holds each component's windows, sorted by start, indexed by
	// kind and then by the component's index (link index for link
	// outages and both bursts, switch index, node id).
	wins [numFaultKinds][][]window

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

	numFaultKinds
)

// faultKindNames are the fault-plan text format's keywords, indexed by
// kind.
var faultKindNames = [numFaultKinds]string{
	LinkFault: "link", SwitchFault: "switch", NodeFault: "node", LossBurst: "loss", CorruptBurst: "corrupt"}

// String returns the fault kind's keyword in the fault-plan text format.
func (k FaultKind) String() string {
	if k < numFaultKinds {
		return faultKindNames[k]
	}
	return fmt.Sprintf("FaultKind(%d)", uint8(k))
}

// FaultWindow is one outage: component Index of class Kind is down (or
// bursting) from Start to End in virtual time, End exclusive.
type FaultWindow struct {
	Kind       FaultKind
	Index      int
	Start, End sim.Time
}

// String renders the window in the fault-plan text format, "kind index
// startUs endUs", in whole microseconds.
func (w FaultWindow) String() string {
	us := func(t sim.Time) int64 { return int64(t) / int64(sim.Microsecond) }
	return fmt.Sprintf("%s %d %d %d", w.Kind, w.Index, us(w.Start), us(w.End))
}

// maxFaultUs is the largest microsecond instant the picosecond clock
// holds.
const maxFaultUs = math.MaxInt64 / int64(sim.Microsecond)

// ParseFaultWindow decodes one window in the text format String
// writes. It checks the shape only, plus that both instants fit the
// picosecond clock; CheckFaults checks the window against a fabric.
func ParseFaultWindow(s string) (FaultWindow, error) {
	f := strings.Fields(s)
	if len(f) != 4 {
		return FaultWindow{}, errors.New(`want "kind index startUs endUs"`)
	}
	kind := slices.Index(faultKindNames[:], f[0])
	if kind < 0 {
		return FaultWindow{}, fmt.Errorf("unknown kind %q", f[0])
	}
	index, err := strconv.Atoi(f[1])
	if err != nil {
		return FaultWindow{}, fmt.Errorf("bad index: %v", err)
	}
	var us [2]int64
	for i, what := range [2]string{"start", "end"} {
		if us[i], err = strconv.ParseInt(f[2+i], 10, 64); err != nil {
			return FaultWindow{}, fmt.Errorf("bad %s: %v", what, err)
		}
		if us[i] > maxFaultUs || us[i] < -maxFaultUs {
			return FaultWindow{}, fmt.Errorf("%s %dus overflows the simulator's picosecond clock (at most %d)",
				what, us[i], maxFaultUs)
		}
	}
	return FaultWindow{Kind: FaultKind(kind), Index: index, Start: sim.Time(sim.Us(us[0])), End: sim.Time(sim.Us(us[1]))}, nil
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

// NumLinks returns the number of directed inter-switch links.
func (t *Topology) NumLinks() int { return len(t.links) }

// HostsNodes reports whether switch sw has nodes attached (a leaf).
func (t *Topology) HostsNodes(sw int) bool { return t.switches[sw].nodes > 0 }

// NumSwitches returns the number of switches.
func (t *Topology) NumSwitches() int { return len(t.switches) }

// NumNodes returns the number of attached nodes.
func (t *Topology) NumNodes() int { return len(t.nodes) }

// components returns how many components a window of kind k can name.
func (t *Topology) components(k FaultKind) int {
	if k >= numFaultKinds {
		return 0
	}
	return [numFaultKinds]int{LinkFault: len(t.links), SwitchFault: len(t.switches), NodeFault: len(t.nodes),
		LossBurst: len(t.links), CorruptBurst: len(t.links)}[k]
}

// CheckFaults reports the first window t cannot install: an unknown
// kind, an index naming no component of its kind, a window that is
// empty or starts before time zero, or, when horizon > 0, one still
// open after horizon (a window that never closes could strand bounced
// frames forever, breaking the zero-undelivered guarantee).
func (t *Topology) CheckFaults(ws []FaultWindow, horizon sim.Time) error {
	for _, w := range ws {
		var why string
		switch n := t.components(w.Kind); {
		case w.Kind >= numFaultKinds:
			why = "unknown kind"
		case w.Index < 0 || w.Index >= n:
			why = fmt.Sprintf("index out of range (%d %s components)", n, w.Kind)
		case w.Start < 0 || w.End <= w.Start:
			why = "empty or negative window"
		case horizon > 0 && w.End > horizon:
			why = fmt.Sprintf("window open past horizon %v", horizon)
		default:
			continue
		}
		return fmt.Errorf("myrinet: fault window %v: %s", w, why)
	}
	return nil
}

// ApplyFaults installs a fault timeline on this fabric. Call once,
// before traffic flows; the windows may arrive in any order. A window
// CheckFaults rejects panics — fmbench and the workload layer check
// plans before building fabrics, so an invalid window here is a
// programming error. In a sharded run every replica applies the
// identical timeline: the per-hop checks and cache invalidations then
// agree across shards by construction.
func (f *Fabric) ApplyFaults(ws []FaultWindow) {
	if len(ws) == 0 {
		return
	}
	if f.faults != nil {
		panic("myrinet: ApplyFaults called twice")
	}
	t := f.topo
	if err := t.CheckFaults(ws, 0); err != nil {
		panic(err.Error())
	}
	fs := &faultState{k: f.k}
	for k := range fs.wins {
		fs.wins[k] = make([][]window, t.components(FaultKind(k)))
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
		per := fs.wins[w.Kind]
		per[w.Index] = append(per[w.Index], window{start: w.Start, end: w.End})
	}
	for _, per := range fs.wins {
		for _, wins := range per {
			sort.Slice(wins, func(i, j int) bool { return wins[i].start < wins[j].start })
		}
	}
	for _, per := range fs.wins[LinkFault : SwitchFault+1] {
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

	// Schedule the toggle events: link windows first, then switch, then
	// node, which fixes their order at equal instants. Link and switch
	// toggles change the routable graph at detection time (DetectLag
	// after the wire-level transition), so each fires then and flushes
	// the route caches; every recovery toggle additionally retries
	// stranded bounces. Toggle bookkeeping is counted once globally: on
	// the shard owning the component's switch (every shard on a
	// single-kernel fabric).
	for kind := LinkFault; kind <= NodeFault; kind++ {
		lag := DetectLag
		if kind == NodeFault {
			lag = 0
		}
		for i, wins := range fs.wins[kind] {
			sw := i // the switch whose owner counts the toggles
			switch kind {
			case LinkFault:
				sw = t.links[i].from
			case NodeFault:
				sw = t.nodes[i].sw
			}
			mine := f.ownsSwitch(sw)
			for _, w := range wins {
				f.k.AtArg(w.start.Add(lag), f.faultToggleFn, toggleArg{count: mine, kind: kind})
				f.k.AtArg(w.end.Add(lag), f.faultToggleFn, toggleArg{recover: true, count: mine, kind: kind})
			}
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
	if arg.kind != NodeFault { // a link or switch toggle changes the routable graph
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

// activeAt reports whether a window of the given kind is open on
// component i at instant t: the wire-level truth the per-hop and
// delivery checks read.
func (fs *faultState) activeAt(kind FaultKind, i int, t sim.Time) bool {
	return at(fs.wins[kind][i], t)
}

// downNow is the router's view of link or switch i: the wire state as
// of DetectLag ago, so resolution keeps steering into a fresh fault
// (and away from a fresh recovery) until the mapper's view catches up.
// Caches are flushed at the detection toggles, so a cached route never
// outlives the view it was computed from.
func (fs *faultState) downNow(kind FaultKind, i int) bool {
	return at(fs.wins[kind][i], fs.k.Now().Add(-DetectLag))
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
