// Package cluster assembles complete simulated machines: hosts, SBuses,
// LANai cards, control programs, and the Myrinet fabric joining them —
// the paper's measurement setup of workstations on an 8-port switch
// (Section 4.1), generalized to N nodes and multi-switch fabrics.
package cluster

import (
	"fmt"

	"fm/internal/cost"
	"fm/internal/host"
	"fm/internal/lanai"
	"fm/internal/lcp"
	"fm/internal/myrinet"
	"fm/internal/sbus"
	"fm/internal/sim"

	"fm/internal/core"
)

// Hardware is the layer-independent machine: everything below the
// messaging software, co-simulated by a group of shard kernels. One
// shard is the single-kernel machine: K and Fab are then the whole
// engine and Part is nil. Past one shard every shard holds a replica of
// the fabric and every node's stack lives on the kernel of the shard
// that owns its leaf switch; indexing stays global, so Buses[id],
// CPUs[id] and friends work for every node id whichever shard
// simulates it.
type Hardware struct {
	K     *sim.Kernel // shard 0's kernel
	Group *sim.ShardGroup
	Part  *myrinet.Partition // nil at one shard: the fabric is not partitioned
	P     *cost.Params
	Fab   *myrinet.Fabric   // shard 0's replica
	Fabs  []*myrinet.Fabric // one replica per shard
	Buses []*sbus.Bus
	CPUs  []*host.CPU
	Devs  []*lanai.Device

	// stacks holds every node's object set so newFMOn can place the
	// endpoint and control program in the same nodeStack the hardware
	// layers came from.
	stacks []nodeStack
}

// nodeStack is the complete per-node object set. place allocates all
// of them as one slice: a cluster of any size then makes one
// allocation for its stacks instead of 5n separate ones, and each
// node's hot structures share cache lines. A stack is under 1 KB
// (TestNodeStackFootprint bounds it at 2 KiB), so the slice is 15 MB
// even at 16,384 nodes and needs no chunking.
// Ownership rules: the slice is owned by the cluster that allocated it
// and lives exactly as long as the cluster; callers only ever see the
// ordinary *Bus/*CPU/... pointers, which alias into it and must not
// outlive the cluster — the same lifetime contract the
// individually-allocated objects already had in practice, since every
// one of them pins the cluster's kernel anyway.
type nodeStack struct {
	bus sbus.Bus
	cpu host.CPU
	dev lanai.Device
	ep  core.Endpoint
	lcp lcp.LCP
}

// NewHardware builds n nodes with the given queue geometry on a single
// crossbar: the paper's 8-port switch, or an n-port one when n is
// larger.
func NewHardware(n int, p *cost.Params, qc lanai.QueueConfig) *Hardware {
	k := sim.NewKernel()
	return NewHardwareOnFabric(k, p, myrinet.NewCrossbar(k, p, n, max(8, n)), qc)
}

// NewHardwareOnFabric wires nodes onto an existing fabric (multi-switch
// topologies built with myrinet.NewLine): a one-shard machine on the
// caller's kernel.
func NewHardwareOnFabric(k *sim.Kernel, p *cost.Params, fab *myrinet.Fabric, qc lanai.QueueConfig) *Hardware {
	return place(sim.GroupOf(k), nil, p, []*myrinet.Fabric{fab}, qc)
}

// Fabrics builds one replica of the build function's fabric on every
// shard kernel of g (the builders are deterministic, so replicas agree
// on numbering). Past one shard it partitions the topology, one
// leaf-group block per shard, and wires every replica's cross-shard
// continuation path; one shard keeps its fabric unpartitioned and
// returns a nil partition. It returns an error when the topology does
// not support the group's shard count.
func Fabrics(g *sim.ShardGroup, build func(*sim.Kernel, *cost.Params) *myrinet.Fabric, p *cost.Params) ([]*myrinet.Fabric, *myrinet.Partition, error) {
	fabs := make([]*myrinet.Fabric, g.Shards())
	for s := range fabs {
		fabs[s] = build(g.Shard(s).Kernel(), p)
	}
	if len(fabs) == 1 {
		return fabs, nil, nil
	}
	part, err := fabs[0].Topology().Partition(len(fabs))
	if err != nil {
		return nil, nil, err
	}
	// Bind each replica's continuation once: a method value evaluated
	// inside the post callback would allocate on every crossing.
	resume := make([]func(any), len(fabs))
	for s, f := range fabs {
		resume[s] = f.ResumeCross
	}
	for s, f := range fabs {
		sh := g.Shard(s)
		f.SetShard(part, s, func(owner int, at sim.Time, pkt *myrinet.Packet) {
			sh.Post(owner, at, resume[owner], pkt)
		})
	}
	return fabs, part, nil
}

// place builds every node's hardware (SBus, host CPU, LANai) in one
// slice of node stacks, on the kernel and fabric replica of the shard
// that owns it.
func place(g *sim.ShardGroup, part *myrinet.Partition, p *cost.Params, fabs []*myrinet.Fabric, qc lanai.QueueConfig) *Hardware {
	n := fabs[0].Nodes()
	h := &Hardware{
		K: g.Shard(0).Kernel(), Group: g, Part: part, P: p, Fab: fabs[0], Fabs: fabs,
		Buses:  make([]*sbus.Bus, n),
		CPUs:   make([]*host.CPU, n),
		Devs:   make([]*lanai.Device, n),
		stacks: make([]nodeStack, n),
	}
	for id := range h.stacks {
		s := part.Owner(id)
		k := g.Shard(s).Kernel()
		st := &h.stacks[id]
		h.Buses[id] = sbus.NewAt(&st.bus, k, p, fmt.Sprintf("sbus%d", id))
		h.CPUs[id] = host.NewAt(&st.cpu, k, p, h.Buses[id], id)
		h.Devs[id] = lanai.NewAt(&st.dev, k, p, h.Buses[id], fabs[s], id, qc)
	}
	return h
}

// FM is a cluster running the Fast Messages layer on every node.
type FM struct {
	*Hardware
	Cfg  core.Config
	EPs  []*core.Endpoint
	LCPs []*lcp.LCP
}

// NewFM builds an n-node FM cluster on NewHardware's single crossbar.
func NewFM(n int, cfg core.Config, p *cost.Params) *FM {
	return newFMOn(NewHardware(n, p, cfg.Queues(p)), cfg)
}

// NewFMOnFabric runs the FM layer on an existing fabric.
func NewFMOnFabric(k *sim.Kernel, p *cost.Params, fab *myrinet.Fabric, cfg core.Config) *FM {
	return newFMOn(NewHardwareOnFabric(k, p, fab, cfg.Queues(p)), cfg)
}

// NewFMFrom builds an FM cluster on a fresh kernel around the fabric
// the build function constructs — the generic form behind NewFMClos,
// and NewFMShardedFrom at one shard.
func NewFMFrom(build func(*sim.Kernel, *cost.Params) *myrinet.Fabric, cfg core.Config, p *cost.Params) *FM {
	c, err := NewFMShardedFrom(build, cfg, p, 1)
	if err != nil {
		panic(err) // one shard never partitions
	}
	return c
}

// NewFMShardedFrom builds an FM cluster co-simulated by `shards`
// kernels around the fabric the build function constructs: the
// constructor the workload drivers use to run any topology spec through
// the full stack. The lookahead window is the switch latency: every
// cross-shard hop crosses a leaf/spine link, so a continuation is
// always posted at least one SwitchLatency ahead. It returns an error
// when the topology does not support the shard count.
func NewFMShardedFrom(build func(*sim.Kernel, *cost.Params) *myrinet.Fabric, cfg core.Config, p *cost.Params, shards int) (*FM, error) {
	g := sim.NewShardGroup(shards, p.SwitchLatency)
	fabs, part, err := Fabrics(g, build, p)
	if err != nil {
		return nil, err
	}
	return newFMOn(place(g, part, p, fabs, cfg.Queues(p)), cfg), nil
}

// NewFMClos builds an FM cluster on a 2-level Clos fabric
// (myrinet.NewClos geometry): spines*leaves trunks, leaves*nodesPerLeaf
// nodes, every switch with the given port count. This is the
// constructor for scaling simulations past a single crossbar (64 nodes =
// 8 spines x 8 leaves x 8 nodes on 16-port switches).
func NewFMClos(spines, leaves, nodesPerLeaf, ports int, cfg core.Config, p *cost.Params) *FM {
	return NewFMFrom(func(k *sim.Kernel, p *cost.Params) *myrinet.Fabric {
		return myrinet.NewClos(k, p, spines, leaves, nodesPerLeaf, ports)
	}, cfg, p)
}

func newFMOn(hw *Hardware, cfg core.Config) *FM {
	n := len(hw.Devs)
	c := &FM{Hardware: hw, Cfg: cfg, EPs: make([]*core.Endpoint, n), LCPs: make([]*lcp.LCP, n)}
	for i := range hw.Devs {
		st := &hw.stacks[i]
		c.EPs[i] = core.NewAt(&st.ep, hw.CPUs[i], hw.Devs[i], cfg, hw.P)
		c.LCPs[i] = lcp.StartAt(&st.lcp, hw.Devs[i], cfg.LCPOptions(hw.P))
	}
	return c
}

// Start launches app as node id's application process, on the shard
// that owns the node.
func (c *FM) Start(id int, app func(ep *core.Endpoint)) {
	ep := c.EPs[id]
	c.CPUs[id].Start(func() { app(ep) })
}

// Run executes the simulation to quiescence.
func (c *Hardware) Run() error { return c.Group.Run() }
