package main

import (
	"time"

	"fm/internal/cluster"
	"fm/internal/core"
	"fm/internal/lanai"
	"fm/internal/lcp"
	"fm/internal/myrinet"
	"fm/internal/sbus"
	"fm/internal/sim"
	"fm/internal/stats"
)

// counters accumulates the simulated-work counters a traced run reads
// from each layer's public Stats()/Utilization()/EventsRun(), summed
// over every simulation the run builds, plus the host-time spans taken
// around top-level calls only (build, prep, run).
type counters struct {
	events   uint64
	messages int
	shards   []sim.ShardStats

	fab         myrinet.Stats
	portUtilMax float64
	lanai       lanai.Stats
	lcp         lcp.Stats
	sbus        sbus.Stats
	sbusUtil    float64 // summed over buses
	buses       int
	core        core.Stats

	fabricBuild, clusterBuild, prep time.Duration

	gcCycles   uint32 // runtime GC cycles during the traced call
	allocBytes uint64 // bytes the traced call allocated

	simElapsed sim.Duration
	lat        stats.Histogram // the workload's latency distribution
	satLat     stats.Histogram // soak-open: the past-knee load's
}

func (c *counters) addFabric(f *myrinet.Fabric) {
	s := f.Stats()
	c.fab.Packets += s.Packets
	c.fab.PayloadBytes += s.PayloadBytes
	c.fab.WireBytes += s.WireBytes
	for i, v := range s.ByType {
		c.fab.ByType[i] += v
	}
	c.fab.CrossPosted += s.CrossPosted
	c.fab.CrossResumed += s.CrossResumed
	for i := 0; i < f.NumSwitches(); i++ {
		sw := f.SwitchAt(i)
		for j := 0; j < sw.Ports(); j++ {
			if u := sw.OutputUtilization(j); u > c.portUtilMax {
				c.portUtilMax = u
			}
		}
	}
}

func (c *counters) addBuses(bs []*sbus.Bus) {
	for _, b := range bs {
		s := b.Stats()
		c.sbus.PIOBytes += s.PIOBytes
		c.sbus.DMABytes += s.DMABytes
		c.sbus.StatusReads += s.StatusReads
		c.sbus.CtrlWrites += s.CtrlWrites
		c.sbusUtil += b.Utilization()
		c.buses++
	}
}

func (c *counters) addDevs(ds []*lanai.Device) {
	for _, d := range ds {
		s := d.Stats()
		c.lanai.Sent += s.Sent
		c.lanai.Received += s.Received
		c.lanai.Delivered += s.Delivered
		c.lanai.HostDMABatches += s.HostDMABatches
		c.lanai.HostDMAPackets += s.HostDMAPackets
		c.lanai.NetStalls += s.NetStalls
	}
}

func (c *counters) addLCPs(ls []*lcp.LCP) {
	for _, l := range ls {
		s := l.Stats()
		c.lcp.Loops += s.Loops
		c.lcp.IdleWakes += s.IdleWakes
	}
}

func (c *counters) addEndpoints(eps []*core.Endpoint) {
	for _, ep := range eps {
		s := ep.Stats()
		c.core.Sent += s.Sent
		c.core.Delivered += s.Delivered
		c.core.AcksSent += s.AcksSent
		c.core.AcksPiggybacked += s.AcksPiggybacked
		c.core.SeqsAcked += s.SeqsAcked
		c.core.RejectsSent += s.RejectsSent
		c.core.RejectsReceived += s.RejectsReceived
		c.core.NetBounces += s.NetBounces
		c.core.Retransmits += s.Retransmits
		c.core.Duplicates += s.Duplicates
		c.core.SendBlocks += s.SendBlocks
	}
}

// addCluster folds every node's layers of an FM cluster.
func (c *counters) addCluster(fm *cluster.FM) {
	c.addFabric(fm.Fab)
	c.addBuses(fm.Buses)
	c.addDevs(fm.Devs)
	c.addLCPs(fm.LCPs)
	c.addEndpoints(fm.EPs)
}

// addStack folds one finished two-node measurement simulation.
func (c *counters) addStack(st *stack) {
	c.events += st.k.EventsRun()
	c.simElapsed += sim.Duration(st.k.Now())
	c.addFabric(st.fab)
	c.addBuses(st.buses)
	c.addDevs(st.devs)
	c.addLCPs(st.lcps)
	c.addEndpoints(st.eps)
}

// layerCounts adds every layer counter to a fingerprint, so a traced run
// pins the full simulated state, not only the public results.
func (c *counters) layerCounts(f *fingerprint) {
	f.add("events", c.events)
	f.add("fabric", c.fab.Packets, c.fab.PayloadBytes, c.fab.WireBytes, c.fab.ByType, c.fab.CrossPosted, c.fab.CrossResumed)
	f.add("port_util_max", c.portUtilMax)
	f.add("lanai", c.lanai)
	f.add("lcp", c.lcp)
	f.add("sbus", c.sbus, c.sbusUtil)
	f.add("core", c.core)
	for i, s := range c.shards {
		f.add("shard", i, s.Events, s.Posted, s.Windows)
	}
}
