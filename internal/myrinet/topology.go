package myrinet

import (
	"fmt"

	"fm/internal/cost"
	"fm/internal/sim"
)

// Topology is a declarative description of a switch fabric: a set of
// crossbar switches, directed inter-switch links (each consuming one
// output port on its source switch), and node attachment points (the
// output port a node's packets are delivered through, which by Myrinet's
// full-duplex cabling is also where the node's uplink enters the fabric).
//
// A Topology is pure data; NewFabric compiles it into a live Fabric by
// instantiating switch resources and precomputing shortest-path source
// routes for every node pair. NewCrossbar, NewLine, and NewClos are
// canned topologies built through this layer.
type Topology struct {
	switches []switchSpec
	nodes    []attach // node id -> delivery point
	links    []link

	// form, when non-nil, declares that this topology is a structured
	// two-level folded Clos (or its one-leaf crossbar degenerate) built
	// by the canned constructors, enabling the formulaic routing fast
	// path (see router.formRoute). Hand-built topologies leave it nil
	// and always route by BFS.
	form *closForm
}

// closForm captures the closed-form geometry of a NewClos fabric: leaf
// switches are topology indices 0..leaves-1 (node id l*npl+j attached
// at leaf l port j), spine s is index leaves+s, leaf l reaches spine s
// through port npl+s, and spine s reaches leaf l through port l. Every
// shortest route is a pure function of (source switch, destination):
// the spine choice dst%spines reproduces the BFS candidate pick
// cands[dst%len(cands)] because the candidate trunks are port-ordered
// and all spines are equidistant on a healthy fabric.
type closForm struct {
	leaves int
	spines int
	npl    int // nodes per leaf
}

type switchSpec struct {
	name  string
	ports int
	nodes int // nodes attached (a leaf hosts some, a spine none)
}

// attach is a node's delivery point: the switch and output port its
// inbound packets leave the fabric through.
type attach struct {
	sw   int
	port int
}

// link is a directed inter-switch channel occupying output port `port`
// on switch `from`.
type link struct {
	from, port, to int
}

// NewTopology returns an empty fabric description.
func NewTopology() *Topology { return &Topology{} }

// AddSwitch declares a crossbar with the given port count and returns
// its index.
func (t *Topology) AddSwitch(name string, ports int) int {
	t.switches = append(t.switches, switchSpec{name: name, ports: ports})
	return len(t.switches) - 1
}

// AttachNode declares the next node id's delivery point on an already
// declared switch and returns the id. Node ids are assigned densely in
// attachment order.
func (t *Topology) AttachNode(sw, port int) int {
	if sw >= 0 && sw < len(t.switches) {
		t.switches[sw].nodes++
	}
	t.nodes = append(t.nodes, attach{sw: sw, port: port})
	return len(t.nodes) - 1
}

// Link declares a directed channel from output port `port` of switch
// `from` into switch `to`. Bidirectional trunks are two Link calls.
func (t *Topology) Link(from, port, to int) {
	t.links = append(t.links, link{from: from, port: port, to: to})
}

// maxPackedPorts and maxPackedSwitches are the widths the packed hop
// representation can address (port uint16, switch uint32). Validate
// enforces them so a route can never truncate an index.
const (
	maxPackedPorts    = 1 << 16
	maxPackedSwitches = 1 << 32
)

// Validate checks structural consistency: indices in range, no output
// port claimed twice (by two links, two nodes, or a link and a node),
// and every index within the packed-route widths.
func (t *Topology) Validate() error {
	if uint64(len(t.switches)) > maxPackedSwitches {
		return fmt.Errorf("myrinet: %d switches exceed the packed-route limit %d", len(t.switches), maxPackedSwitches)
	}
	for _, s := range t.switches {
		if s.ports > maxPackedPorts {
			return fmt.Errorf("myrinet: %s has %d ports, exceeding the packed-route limit %d",
				s.name, s.ports, maxPackedPorts)
		}
	}
	used := map[[2]int]string{}
	claim := func(sw, port int, what string) error {
		if sw < 0 || sw >= len(t.switches) {
			return fmt.Errorf("myrinet: %s references switch %d of %d", what, sw, len(t.switches))
		}
		if port < 0 || port >= t.switches[sw].ports {
			return fmt.Errorf("myrinet: %s references port %d of %d on %s",
				what, port, t.switches[sw].ports, t.switches[sw].name)
		}
		key := [2]int{sw, port}
		if prev, dup := used[key]; dup {
			return fmt.Errorf("myrinet: %s.out%d claimed by both %s and %s",
				t.switches[sw].name, port, prev, what)
		}
		used[key] = what
		return nil
	}
	for i, n := range t.nodes {
		if err := claim(n.sw, n.port, fmt.Sprintf("node %d", i)); err != nil {
			return err
		}
	}
	for _, l := range t.links {
		if err := claim(l.from, l.port, fmt.Sprintf("link to %s", t.name(l.to))); err != nil {
			return err
		}
		if l.to < 0 || l.to >= len(t.switches) {
			return fmt.Errorf("myrinet: link from %s targets switch %d of %d",
				t.name(l.from), l.to, len(t.switches))
		}
	}
	return nil
}

func (t *Topology) name(sw int) string {
	if sw < 0 || sw >= len(t.switches) {
		return fmt.Sprintf("sw?%d", sw)
	}
	return t.switches[sw].name
}

// router resolves source routes on demand and caches them. The seed
// implementation precomputed the full O(nodes²) route table at fabric
// construction, which made large Clos fabrics expensive to build even
// for experiments touching a handful of node pairs; the router instead
// runs one backward BFS per destination *switch* on first demand and
// caches finished routes keyed by (source switch, destination node) —
// every node on a leaf shares its co-resident nodes' routes, so a
// 1024-node Clos caches at most switches×nodes routes, each computed
// exactly once, instead of nodes² up front.
//
// Where several shortest paths exist (Clos fabrics have one per spine),
// the branch taken is the destination id modulo the number of candidate
// next hops — deterministic, and it statically spreads unrelated
// destinations across the parallel paths the way Myrinet's static
// source-route tables did. Candidate next hops are ordered by output
// port, so the choice is stable across runs and identical to the eager
// table the seed computed.
type router struct {
	t       *Topology
	fwd     [][]adj // forward adjacency, port-ordered
	rev     [][]int // link indices into t.links arriving at each switch
	distTo  map[int][]int
	cache   map[[2]int][]hop // (src switch, dst node) -> route (nil = unreachable)
	scratch []adj            // candidate buffer reused across lookups

	// formBuf backs formulaic fast-path routes (at most 3 hops on a
	// two-level Clos). Reusing one buffer is safe because every resolved
	// route is fully consumed before the next resolution: forward walks
	// its route synchronously, every faultTurn call site returns without
	// re-reading the outer route, and Fabric.Route copies.
	formBuf [3]hop

	// fs is the fabric's fault state; nil on a fault-free fabric. When
	// set, distance maps and candidate selection skip components that
	// are down right now, and the caches are invalidated at every
	// topology-state toggle (see Fabric.ApplyFaults).
	fs *faultState
}

// adj is one forward-adjacency entry: the link plus its index in the
// topology's link list, so fault checks can key per-link state.
type adj struct {
	link
	idx int
}

// newRouter builds the adjacency structures and verifies every ordered
// node pair is routable (construction-time check, so an unroutable
// topology fails fast even though routes are resolved lazily).
func (t *Topology) newRouter() *router {
	r := &router{
		t:      t,
		fwd:    make([][]adj, len(t.switches)),
		rev:    make([][]int, len(t.switches)),
		distTo: map[int][]int{},
		cache:  map[[2]int][]hop{},
	}
	for i, l := range t.links {
		r.fwd[l.from] = append(r.fwd[l.from], adj{link: l, idx: i})
		r.rev[l.to] = append(r.rev[l.to], i)
	}
	for _, ls := range r.fwd {
		for i := 1; i < len(ls); i++ { // insertion sort by port; degree is tiny
			for j := i; j > 0 && ls[j-1].port > ls[j].port; j-- {
				ls[j-1], ls[j] = ls[j], ls[j-1]
			}
		}
	}
	r.checkConnected()
	return r
}

// checkConnected verifies that every switch hosting a node can reach and
// be reached by every other such switch. It is equivalent to (but far
// cheaper than) routing all node pairs: if every node switch reaches
// switch s0 and s0 reaches every node switch, paths exist for all pairs.
func (r *router) checkConnected() {
	if len(r.t.nodes) == 0 {
		return
	}
	s0 := r.t.nodes[0].sw
	reach := func(adj func(int) []int) []bool {
		seen := make([]bool, len(r.t.switches))
		seen[s0] = true
		queue := []int{s0}
		for len(queue) > 0 {
			cur := queue[0]
			queue = queue[1:]
			for _, next := range adj(cur) {
				if !seen[next] {
					seen[next] = true
					queue = append(queue, next)
				}
			}
		}
		return seen
	}
	fromS0 := reach(func(sw int) []int {
		out := make([]int, 0, len(r.fwd[sw]))
		for _, l := range r.fwd[sw] {
			out = append(out, l.to)
		}
		return out
	})
	toS0 := reach(func(sw int) []int {
		out := make([]int, 0, len(r.rev[sw]))
		for _, li := range r.rev[sw] {
			out = append(out, r.t.links[li].from)
		}
		return out
	})
	for i, n := range r.t.nodes {
		if !fromS0[n.sw] {
			panic(fmt.Sprintf("myrinet: no path from %s to %s (node %d unreachable)",
				r.t.name(s0), r.t.name(n.sw), i))
		}
		if !toS0[n.sw] {
			panic(fmt.Sprintf("myrinet: no path from %s to %s (node %d cut off)",
				r.t.name(n.sw), r.t.name(s0), i))
		}
	}
}

// hintRoutes re-seeds the (still empty) route cache with capacity for n
// entries. Callers know the workload's reach (workload geometry: nodes,
// switches, message count); the router itself cannot guess it. On a
// fault-free structured fabric the formulaic fast path serves every
// resolution, so there is nothing to cache and the hint is dropped —
// at 16k nodes the pre-sized map alone would be hundreds of MB.
func (r *router) hintRoutes(n int) {
	if r.t.form != nil && r.fs == nil {
		return
	}
	if len(r.cache) == 0 && n > 0 {
		r.cache = make(map[[2]int][]hop, n)
	}
}

// distances returns (computing and caching on first use) the hop count
// from every switch to dstSw over the links and switches that are up
// right now. On a fault-free fabric "up right now" is everything, and
// the maps live for the fabric's lifetime; under faults they are
// invalidated at every topology-state toggle (see invalidate), so a
// cached map is always consistent with the current state.
func (r *router) distances(dstSw int) []int {
	if d, ok := r.distTo[dstSw]; ok {
		return d
	}
	dist := make([]int, len(r.t.switches))
	for i := range dist {
		dist[i] = -1
	}
	dist[dstSw] = 0
	queue := []int{dstSw}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		for _, li := range r.rev[cur] {
			if r.fs != nil && r.fs.downNow(LinkFault, li) {
				continue
			}
			prev := r.t.links[li].from
			if r.fs != nil && r.fs.downNow(SwitchFault, prev) {
				continue
			}
			if dist[prev] < 0 {
				dist[prev] = dist[cur] + 1
				queue = append(queue, prev)
			}
		}
	}
	r.distTo[dstSw] = dist
	return dist
}

// invalidate discards every cached route and distance map. The fabric
// calls it at each fault toggle (a component going down or coming back
// up), so the next resolution re-routes over the now-current healthy
// subgraph. Fault-free fabrics never call it.
func (r *router) invalidate() {
	clear(r.cache)
	clear(r.distTo)
}

// route returns the hop sequence from node src to node dst (src != dst),
// resolving and caching it on first use. The returned slice is owned by
// the cache and must not be mutated. It panics when no healthy path
// exists; fault-aware callers use routeFrom and handle nil.
func (r *router) route(src, dst int) []hop {
	rt := r.routeFrom(r.t.nodes[src].sw, dst)
	if rt == nil {
		panic(fmt.Sprintf("myrinet: no path from %s to %s (nodes %d->%d)",
			r.t.name(r.t.nodes[src].sw), r.t.name(r.t.nodes[dst].sw), src, dst))
	}
	return rt
}

// routeFrom resolves the hop sequence from a switch to node dst over
// the currently-healthy subgraph, returning nil when dst is unreachable
// (negative results are cached too — the caches are flushed at every
// state toggle). Shortest-path suffixes are shortest paths and the
// spine choice at each switch depends only on (switch, dst), so on a
// healthy fabric routeFrom(midSw, dst) equals the corresponding suffix
// of the full source route — which is what lets cross-shard
// continuations and fault bounces re-resolve from their current switch
// without carrying the original route along.
func (r *router) routeFrom(srcSw, dst int) []hop {
	if fm := r.t.form; fm != nil && (r.fs == nil || r.fs.routingQuiet()) {
		// Structured fabric with no link/switch outage in the mapper's
		// current view: the route is a closed-form function of
		// (srcSw, dst) — no BFS, no cache entry, no allocation. Under
		// an active window the BFS path below remains the only one, so
		// fault semantics (detection lag, cache invalidation at
		// toggles, rerouting over the healthy subgraph) are untouched.
		return r.formRoute(fm, srcSw, dst)
	}
	da := r.t.nodes[dst]
	key := [2]int{srcSw, dst}
	if rt, ok := r.cache[key]; ok {
		return rt
	}
	if r.fs != nil && (r.fs.downNow(SwitchFault, srcSw) || r.fs.downNow(SwitchFault, da.sw)) {
		r.cache[key] = nil
		return nil
	}
	dist := r.distances(da.sw)
	if dist[srcSw] < 0 {
		r.cache[key] = nil
		return nil
	}
	route := make([]hop, 0, dist[srcSw]+1)
	cur := srcSw
	for cur != da.sw {
		cands := r.scratch[:0]
		for _, l := range r.fwd[cur] {
			if r.fs != nil && r.fs.downNow(LinkFault, l.idx) {
				continue
			}
			if dist[l.to] == dist[cur]-1 {
				cands = append(cands, l)
			}
		}
		pick := cands[dst%len(cands)]
		r.scratch = cands[:0]
		route = append(route, hop{sw: uint32(pick.from), port: uint16(pick.port)})
		cur = pick.to
	}
	route = append(route, hop{sw: uint32(da.sw), port: uint16(da.port)})
	r.cache[key] = route
	return route
}

// formRoute computes the source route on a structured fabric without
// BFS: same-leaf traffic is the single delivery hop; cross-leaf traffic
// goes up to spine dst%spines and down to the destination leaf; a
// resolution starting at a spine (cross-shard continuations, fault
// bounces after recovery) is the down-hop suffix. Each shape is exactly
// the route the BFS path resolves on a healthy fabric — the property
// test in route_form_test.go holds them equal pairwise. The returned
// slice aliases r.formBuf; callers consume it before the next
// resolution (see the formBuf field comment).
func (r *router) formRoute(fm *closForm, srcSw, dst int) []hop {
	da := r.t.nodes[dst]
	buf := r.formBuf[:0]
	if srcSw != da.sw {
		if srcSw >= fm.leaves {
			// Starting at a spine: one trunk down to the delivery leaf.
			buf = append(buf, hop{sw: uint32(srcSw), port: uint16(da.sw)})
		} else {
			s := dst % fm.spines
			buf = append(buf,
				hop{sw: uint32(srcSw), port: uint16(fm.npl + s)},
				hop{sw: uint32(fm.leaves + s), port: uint16(da.sw)})
		}
	}
	return append(buf, hop{sw: uint32(da.sw), port: uint16(da.port)})
}

// NewClos builds a 2-level folded-Clos (fat-tree) fabric: `leaves` leaf
// switches with nodesPerLeaf nodes each, every leaf linked up to each of
// `spines` spine switches by one bidirectional trunk. `ports` is the
// physical port count of every switch (a leaf consumes nodesPerLeaf +
// spines outputs, a spine consumes `leaves`).
//
// Leaf l uses ports 0..nodesPerLeaf-1 for its local nodes and port
// nodesPerLeaf+s for the trunk to spine s; spine s uses port l for the
// trunk down to leaf l. Same-leaf traffic crosses one switch; cross-leaf
// traffic crosses three (leaf, spine, leaf), with the spine chosen
// deterministically per destination (see Topology routing). This is the
// multistage fabric real Myrinet installations scaled to beyond the
// paper's single 8-port crossbar.
func NewClos(k *sim.Kernel, p *cost.Params, spines, leaves, nodesPerLeaf, ports int) *Fabric {
	if err := ClosCheck(spines, leaves, nodesPerLeaf, ports); err != nil {
		panic(err.Error())
	}
	t := NewTopology()
	leafIdx := make([]int, leaves)
	for l := 0; l < leaves; l++ {
		leafIdx[l] = t.AddSwitch(fmt.Sprintf("leaf%d", l), ports)
	}
	spineIdx := make([]int, spines)
	for s := 0; s < spines; s++ {
		spineIdx[s] = t.AddSwitch(fmt.Sprintf("spine%d", s), ports)
	}
	for l := 0; l < leaves; l++ {
		for j := 0; j < nodesPerLeaf; j++ {
			t.AttachNode(leafIdx[l], j)
		}
		for s := 0; s < spines; s++ {
			t.Link(leafIdx[l], nodesPerLeaf+s, spineIdx[s])
			t.Link(spineIdx[s], l, leafIdx[l])
		}
	}
	t.form = &closForm{leaves: leaves, spines: spines, npl: nodesPerLeaf}
	return NewFabric(k, p, t)
}

// ClosCheck reports whether a Clos geometry can be built: positive
// dimensions, enough switch ports for the leaf fan-out (local nodes
// plus spine trunks) and the spine fan-out, and port counts within the
// packed-route width. NewClos panics on exactly these conditions;
// callers that derive geometry from a user-supplied node count (the
// scale sweep) use ClosCheck to reject a bad point before any earlier
// sweep point has burned wall-clock time.
func ClosCheck(spines, leaves, nodesPerLeaf, ports int) error {
	if spines < 1 || leaves < 1 || nodesPerLeaf < 1 {
		return fmt.Errorf("myrinet: Clos dimensions must be positive")
	}
	if nodesPerLeaf+spines > ports {
		return fmt.Errorf("myrinet: leaf needs %d ports (%d nodes + %d spines), has %d",
			nodesPerLeaf+spines, nodesPerLeaf, spines, ports)
	}
	if leaves > ports {
		return fmt.Errorf("myrinet: spine needs %d ports for %d leaves, has %d", leaves, leaves, ports)
	}
	if ports > maxPackedPorts {
		return fmt.Errorf("myrinet: %d ports per switch exceed the packed-route limit %d", ports, maxPackedPorts)
	}
	return nil
}
