package cluster

import (
	"fmt"
	"testing"
	"unsafe"

	"fm/internal/core"
	"fm/internal/cost"
	"fm/internal/myrinet"
	"fm/internal/sim"
)

func TestNewFMWiring(t *testing.T) {
	c := NewFM(4, core.DefaultConfig(), cost.Default())
	if len(c.EPs) != 4 || len(c.Devs) != 4 || len(c.CPUs) != 4 || len(c.Buses) != 4 {
		t.Fatal("incomplete wiring")
	}
	for i, ep := range c.EPs {
		if ep.NodeID() != i {
			t.Errorf("endpoint %d has id %d", i, ep.NodeID())
		}
	}
	if c.Fab.Nodes() != 4 {
		t.Errorf("fabric nodes = %d", c.Fab.Nodes())
	}
}

// TestNodeStackFootprint bounds the per-node object set: place allocates
// one nodeStack per node, so at 16,384 nodes every byte here costs 16 KB.
// Per-node instruments belong behind an opt-in pointer, not embedded in
// a member, and an embedded histogram (16 KB) fails this at once.
func TestNodeStackFootprint(t *testing.T) {
	const limit = 2 << 10
	var st nodeStack
	size := unsafe.Sizeof(st)
	sizes := fmt.Sprintf("bus %d, cpu %d, dev %d, ep %d, lcp %d",
		unsafe.Sizeof(st.bus), unsafe.Sizeof(st.cpu), unsafe.Sizeof(st.dev),
		unsafe.Sizeof(st.ep), unsafe.Sizeof(st.lcp))
	t.Logf("nodeStack is %d bytes (%s)", size, sizes)
	if size > limit {
		t.Errorf("nodeStack is %d bytes, over the %d-byte bound (%s)", size, limit, sizes)
	}
}

func TestLargeClusterGetsEnoughPorts(t *testing.T) {
	// 16 nodes exceed the default 8-port switch; NewFM must widen it.
	c := NewFM(16, core.DefaultConfig(), cost.Default())
	done := false
	c.Start(15, func(ep *core.Endpoint) {
		ep.RegisterHandler(0, func(int, []byte) { done = true })
		for !done {
			ep.WaitIncoming()
			ep.Extract()
		}
	})
	c.Start(0, func(ep *core.Endpoint) { ep.Send4(15, 0, 1, 2, 3, 4) })
	if err := c.Run(); err != nil {
		t.Fatal(err)
	}
	if !done {
		t.Fatal("cross-cluster send failed")
	}
}

// TestFMOverMultiSwitchFabric: the full layer works across a 3-switch
// line with multi-hop source routing, and latency grows with hop count.
func TestFMOverMultiSwitchFabric(t *testing.T) {
	p := cost.Default()
	cfg := core.DefaultConfig()
	k := sim.NewKernel()
	fab := myrinet.NewLine(k, p, 3, 2, 8) // nodes 0,1 | 2,3 | 4,5
	c := NewFMOnFabric(k, p, fab, cfg)

	oneWay := func(a, b, rounds int) sim.Duration {
		got := 0
		var start, end sim.Time
		c.Start(b, func(ep *core.Endpoint) {
			echoed := 0
			ep.RegisterHandler(0, func(src int, payload []byte) {
				echoed++
				ep.Send(src, 0, payload)
			})
			for echoed < rounds {
				ep.WaitIncoming()
				ep.Extract()
			}
		})
		c.Start(a, func(ep *core.Endpoint) {
			ep.RegisterHandler(0, func(int, []byte) { got++ })
			start = ep.Now()
			buf := make([]byte, 64)
			for i := 0; i < rounds; i++ {
				ep.Send(b, 0, buf)
				for got < i+1 {
					ep.WaitIncoming()
					ep.Extract()
				}
			}
			end = ep.Now()
		})
		if err := c.Run(); err != nil {
			t.Fatal(err)
		}
		return end.Sub(start) / sim.Duration(2*rounds)
	}

	near := oneWay(0, 1, 20) // same switch: 1 hop
	// Fresh fabric for the far measurement (apps finished; reuse nodes 4,5
	// on a new cluster to keep state clean).
	k2 := sim.NewKernel()
	fab2 := myrinet.NewLine(k2, p, 3, 2, 8)
	c2 := NewFMOnFabric(k2, p, fab2, cfg)
	cOld := c
	c = c2
	far := oneWay(0, 5, 20) // across all three switches
	c = cOld

	if far <= near {
		t.Errorf("3-hop latency (%v) not above 1-hop (%v)", far, near)
	}
	// The minimum gap is two extra switch latencies; software noise may
	// add more, but never less.
	if far-near < 2*p.SwitchLatency {
		t.Errorf("hop gap %v below 2 switch latencies", far-near)
	}
}

// TestFMOverClosFabric: the full layer runs across a 2-level Clos, and
// cross-leaf latency exceeds same-leaf latency by at least the two extra
// switch crossings.
func TestFMOverClosFabric(t *testing.T) {
	p := cost.Default()
	cfg := core.DefaultConfig()

	oneWay := func(a, b, rounds int) sim.Duration {
		c := NewFMClos(2, 2, 2, 8, cfg, p) // nodes 0,1 | 2,3
		got := 0
		var start, end sim.Time
		c.Start(b, func(ep *core.Endpoint) {
			echoed := 0
			ep.RegisterHandler(0, func(src int, payload []byte) {
				echoed++
				ep.Send(src, 0, payload)
			})
			for echoed < rounds {
				ep.WaitIncoming()
				ep.Extract()
			}
		})
		c.Start(a, func(ep *core.Endpoint) {
			ep.RegisterHandler(0, func(int, []byte) { got++ })
			start = ep.Now()
			buf := make([]byte, 64)
			for i := 0; i < rounds; i++ {
				ep.Send(b, 0, buf)
				for got < i+1 {
					ep.WaitIncoming()
					ep.Extract()
				}
			}
			end = ep.Now()
		})
		if err := c.Run(); err != nil {
			t.Fatal(err)
		}
		return end.Sub(start) / sim.Duration(2*rounds)
	}

	near := oneWay(0, 1, 20) // same leaf: 1 hop
	far := oneWay(0, 3, 20)  // leaf -> spine -> leaf: 3 hops
	if far <= near {
		t.Errorf("cross-leaf latency (%v) not above same-leaf (%v)", far, near)
	}
	if far-near < 2*p.SwitchLatency {
		t.Errorf("hop gap %v below 2 switch latencies", far-near)
	}
}

// closScenarioEvents runs a fixed 8-node Clos scenario (every node sends
// 4 messages to its cross-leaf partner) and returns the kernel's event
// count, the simulation's determinism fingerprint.
func closScenarioEvents(t *testing.T) uint64 {
	t.Helper()
	c := NewFMClos(2, 2, 4, 8, core.DefaultConfig(), cost.Default())
	const msgs = 4
	n := c.Fab.Nodes()
	for id := 0; id < n; id++ {
		id := id
		peer := (id + n/2) % n
		c.Start(id, func(ep *core.Endpoint) {
			got := 0
			ep.RegisterHandler(0, func(int, []byte) { got++ })
			buf := make([]byte, 64)
			for i := 0; i < msgs; i++ {
				if err := ep.Send(peer, 0, buf); err != nil {
					t.Error(err)
				}
			}
			for got < msgs || ep.Outstanding() > 0 {
				ep.WaitIncoming()
				ep.Extract()
			}
		})
	}
	if err := c.Run(); err != nil {
		t.Fatal(err)
	}
	return c.K.EventsRun()
}

// TestClosScenarioDeterminism pins the exact event count of a fixed
// scenario. Two fresh runs must agree with each other and with the
// pinned value; any drift means nondeterminism crept into the kernel or
// the layers above it. Update the constant only for intentional protocol
// or cost-model changes.
func TestClosScenarioDeterminism(t *testing.T) {
	const pinned = 808
	a := closScenarioEvents(t)
	b := closScenarioEvents(t)
	if a != b {
		t.Fatalf("identical scenarios ran %d vs %d events", a, b)
	}
	if a != pinned {
		t.Errorf("EventsRun = %d, pinned %d (update only for intentional changes)", a, pinned)
	}
}
