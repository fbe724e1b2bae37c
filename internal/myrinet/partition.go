package myrinet

import "fmt"

// Partition assigns every switch and node of a topology to one of N
// shards for conservative parallel simulation. The cut follows the
// Clos structure: node-hosting switches ("leaf groups") are dealt to
// shards in contiguous index-order blocks, each node belongs to its
// leaf's shard, and the node-free spine switches are spread round-robin
// so no shard simulates a disproportionate share of the trunk
// contention points. Every cross-shard move of a packet head therefore
// crosses an inter-switch link, whose SwitchLatency is the lookahead
// window that makes the shards safe to run a window apart.
type Partition struct {
	Shards      int
	SwitchShard []int // switch index -> owning shard
	NodeShard   []int // node id -> owning shard
}

// Owner returns the shard that simulates node id. A nil partition is
// an unpartitioned fabric, whose one shard 0 owns every node.
func (p *Partition) Owner(id int) int {
	if p == nil {
		return 0
	}
	return p.NodeShard[id]
}

// LeafGroups returns the number of node-hosting switches — the maximum
// shard count any partition of t can support.
func (t *Topology) LeafGroups() int {
	n := 0
	for sw := range t.switches {
		if t.HostsNodes(sw) {
			n++
		}
	}
	return n
}

// partitionable reports whether the fabric has the strict two-level
// leaf/spine shape sharding requires: every switch either hosts nodes
// (leaf) or hosts none (spine), and every link joins a leaf to a spine.
// A leaf-to-leaf link (the line topology) would make two node-owning
// shards adjacent with no spine between them, halving the lookahead a
// boundary crossing is guaranteed; rather than complicate the window
// math, such fabrics run single-kernel.
func (t *Topology) partitionable() error {
	for _, l := range t.links {
		fromLeaf, toLeaf := t.HostsNodes(l.from), t.HostsNodes(l.to)
		if fromLeaf && toLeaf {
			return fmt.Errorf("link %s -> %s joins two node-hosting switches",
				t.name(l.from), t.name(l.to))
		}
		if !fromLeaf && !toLeaf {
			return fmt.Errorf("link %s -> %s joins two spine switches",
				t.name(l.from), t.name(l.to))
		}
	}
	return nil
}

// Partition cuts the topology into `shards` pieces. shards must be at
// least 1; 1 always succeeds (the trivial partition). More than one
// shard requires a two-level leaf/spine fabric with at least `shards`
// leaf groups; the error otherwise says what the topology supports.
func (t *Topology) Partition(shards int) (*Partition, error) {
	groups := t.LeafGroups()
	p := &Partition{
		Shards:      shards,
		SwitchShard: make([]int, len(t.switches)),
		NodeShard:   make([]int, len(t.nodes)),
	}
	if shards < 1 {
		return nil, fmt.Errorf("myrinet: shard count must be at least 1, got %d", shards)
	}
	if shards == 1 {
		return p, nil
	}
	if err := t.partitionable(); err != nil {
		return nil, fmt.Errorf("myrinet: topology shards only at 1 (%v; only two-level leaf/spine fabrics partition)", err)
	}
	if shards > groups {
		return nil, fmt.Errorf("myrinet: %d shards exceed the topology's %d leaf group(s); it supports 1..%d",
			shards, groups, groups)
	}
	leaf, spine := 0, 0
	for sw := range t.switches {
		if t.HostsNodes(sw) {
			// Contiguous blocks of ceil/floor(groups/shards) leaves: leaf
			// i lands on shard i*shards/groups, which is monotone and
			// balanced to within one leaf.
			p.SwitchShard[sw] = leaf * shards / groups
			leaf++
		} else {
			p.SwitchShard[sw] = spine % shards
			spine++
		}
	}
	for id, a := range t.nodes {
		p.NodeShard[id] = p.SwitchShard[a.sw]
	}
	return p, nil
}
