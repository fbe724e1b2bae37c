package workload

import (
	"fm/internal/cost"
	"fm/internal/myrinet"
	"fm/internal/sim"
)

// FabricSpec names one topology a pattern can be driven over. Build
// constructs a fresh fabric on the caller's kernel; every driver call
// gets its own simulation.
type FabricSpec struct {
	Name     string
	Switches int
	Build    func(k *sim.Kernel, p *cost.Params) *myrinet.Fabric
}

// Geometry splits n nodes into equal groups for the multi-switch
// topologies: groupSize is the largest power of two dividing n that
// does not exceed sqrt(n), so 64 nodes become 8 groups of 8.
func Geometry(n int) (groupSize, groups int) {
	groupSize = 1
	for v := 2; v <= n/v; v *= 2 { // v*v <= n, without overflowing int
		if n%v == 0 {
			groupSize = v
		}
	}
	return groupSize, n / groupSize
}

// ClosGeometry derives the full-bisection Clos sizing for n nodes:
// spines = leaves = groups, and the switch port count that accommodates
// both roles. It is the single source of Clos sizing — the raw-fabric,
// FM-layer, and scale-sweep legs all measure the same topology.
func ClosGeometry(n int) (spines, leaves, nodesPerLeaf, ports int) {
	g, groups := Geometry(n)
	return groups, groups, g, g + groups
}

// CrossbarSpec is the ideal fabric: all n nodes on one n-port switch.
func CrossbarSpec(n int) FabricSpec {
	return FabricSpec{Name: "crossbar", Switches: 1,
		Build: func(k *sim.Kernel, p *cost.Params) *myrinet.Fabric {
			return myrinet.NewCrossbar(k, p, n, n)
		}}
}

// LineSpec is a line of crossbars: Geometry(n) groups joined by single
// trunk links, so the bisection is one trunk pair.
func LineSpec(n int) FabricSpec {
	g, groups := Geometry(n)
	return FabricSpec{Name: "line", Switches: groups,
		Build: func(k *sim.Kernel, p *cost.Params) *myrinet.Fabric {
			return myrinet.NewLine(k, p, groups, g, g+2)
		}}
}

// ClosSpec is the full-bisection 2-level Clos at n nodes (spines =
// leaves), sized by ClosGeometry.
func ClosSpec(n int) FabricSpec {
	spines, leaves, g, ports := ClosGeometry(n)
	return FabricSpec{Name: "clos", Switches: spines + leaves,
		Build: func(k *sim.Kernel, p *cost.Params) *myrinet.Fabric {
			return myrinet.NewClos(k, p, spines, leaves, g, ports)
		}}
}

// Specs returns the three standard topologies at n nodes, in
// comparison order: crossbar, line, Clos.
func Specs(n int) []FabricSpec {
	return []FabricSpec{CrossbarSpec(n), LineSpec(n), ClosSpec(n)}
}

// RouteHint estimates how many distinct route-cache entries a pattern
// with the given message count can demand on this fabric. The cache is
// keyed (source switch, destination node), so switches x nodes bounds
// it from the geometry side, and a sparse pattern cannot demand more
// entries than it has messages. Drivers pass the result to
// myrinet.Fabric.HintRoutes so the demand-filled cache is sized once
// instead of rehash-growing while the simulation runs.
func (s FabricSpec) RouteHint(nodes, messages int) int {
	hint := s.Switches * nodes
	if messages < hint {
		hint = messages
	}
	return hint
}
