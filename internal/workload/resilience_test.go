package workload

import (
	"testing"

	"fm/internal/core"
	"fm/internal/cost"
	"fm/internal/myrinet"
	"fm/internal/sim"
)

// TestResilienceSingleFault is the resilience property test: on
// randomized two-level Clos topologies, any single link or switch
// failure opening mid-traffic still delivers 100% of an all-to-all
// pattern — nothing lost, nothing stranded, no duplicates — and the
// retransmit machinery is visibly exercised (the fault lands while
// packets are in flight, so at least one bounces and resends). The
// property must hold identically split across 1, 2, 4, and 8 shard
// kernels. Everything derives from the seed, so a passing seed passes
// forever.
func TestResilienceSingleFault(t *testing.T) {
	cfg := core.DefaultConfig()
	p := cost.Default()
	for seed := uint64(1); seed <= 4; seed++ {
		seed := seed
		r := newSplitMix64(seed, 0xc105)
		// Both sizes have 8 leaf groups, the shard ceiling this test
		// needs; which one, and which component dies, varies per seed.
		nodes := 32
		if r.next()%2 == 1 {
			nodes = 64
		}
		spec := ClosSpec(nodes)
		topo := spec.Build(sim.NewKernel(), p).Topology()

		ev := FaultEvent{Kind: myrinet.LinkFault, Index: int(r.next() % uint64(topo.NumLinks()))}
		if r.next()%2 == 1 {
			var spines []int
			for sw := 0; sw < topo.NumSwitches(); sw++ {
				if !topo.HostsNodes(sw) {
					spines = append(spines, sw)
				}
			}
			ev = FaultEvent{Kind: myrinet.SwitchFault, Index: spines[r.next()%uint64(len(spines))]}
		}
		// The window must open while the doomed component actually
		// carries traffic, or there is nothing to bounce: the all-to-all
		// walks destinations in offset order, and on clos-64 every
		// dst in spine s's residue class stays intra-leaf for the first
		// seven offsets, so the spines only get busy ~100us in (clos-32's
		// four-node leaves cross leaves from offset 4, ~30us in). The
		// draw lands mid-busy-phase and closes well before the pattern
		// drains (clean elapsed is ~640us / ~1.2ms).
		if nodes == 64 {
			ev.StartUs = 100 + int64(r.next()%120)
		} else {
			ev.StartUs = 30 + int64(r.next()%70)
		}
		ev.EndUs = ev.StartUs + 50 + int64(r.next()%60)
		ws, err := FaultPlan{Seed: seed, Events: []FaultEvent{ev}}.Windows(topo, 0)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}

		for _, shards := range []int{1, 2, 4, 8} {
			res := DriveFMFaultsSharded(spec, cfg, p, AllToAll{Rounds: 1}, 64, ws, shards)
			if int(res.Stats.Delivered) != res.Messages {
				t.Fatalf("seed %d (%s %d on clos-%d) shards=%d: delivered %d/%d",
					seed, ev.Kind, ev.Index, nodes, shards, res.Stats.Delivered, res.Messages)
			}
			if res.Stranded != 0 || res.Stats.Duplicates != 0 {
				t.Fatalf("seed %d (%s %d on clos-%d) shards=%d: stranded=%d duplicates=%d",
					seed, ev.Kind, ev.Index, nodes, shards, res.Stranded, res.Stats.Duplicates)
			}
			if res.Stats.Retransmits == 0 {
				t.Fatalf("seed %d (%s %d on clos-%d) shards=%d: fault window [%d,%d)us drew no retransmits (bounced=%d)",
					seed, ev.Kind, ev.Index, nodes, shards, ev.StartUs, ev.EndUs, res.Fault.Bounced)
			}
			if downs(res.Fault) != 1 || res.Fault.Recoveries != 1 {
				t.Fatalf("seed %d shards=%d: toggles miscounted: %+v", seed, shards, res.Fault)
			}
		}
	}
}
