package myrinet

import (
	"math/rand"
	"sort"
	"strings"
	"testing"

	"fm/internal/cost"
	"fm/internal/sim"
)

func TestPartitionClosAssignment(t *testing.T) {
	p := cost.Default()
	f := NewClos(sim.NewKernel(), p, 4, 8, 4, 16) // 8 leaves x 4 nodes, 4 spines
	topo := f.Topology()

	if got := topo.LeafGroups(); got != 8 {
		t.Fatalf("LeafGroups = %d, want 8", got)
	}
	if _, err := topo.Partition(8); err != nil {
		t.Fatalf("Partition(8) on 8 leaf groups: %v", err)
	}
	if _, err := topo.Partition(9); err == nil || !strings.Contains(err.Error(), "supports 1..8") {
		t.Fatalf("Partition(9) on 8 leaf groups error = %v, want the supported range", err)
	}
	part, err := topo.Partition(4)
	if err != nil {
		t.Fatal(err)
	}
	// Leaves (switch indices 0..7) deal into contiguous blocks of two;
	// spines (8..11) deal round-robin.
	for l := 0; l < 8; l++ {
		if want := l * 4 / 8; part.SwitchShard[l] != want {
			t.Fatalf("leaf %d on shard %d, want %d", l, part.SwitchShard[l], want)
		}
	}
	for s := 0; s < 4; s++ {
		if want := s % 4; part.SwitchShard[8+s] != want {
			t.Fatalf("spine %d on shard %d, want %d", s, part.SwitchShard[8+s], want)
		}
	}
	// Nodes inherit their leaf's shard, and every shard owns some.
	counts := make([]int, 4)
	for id := 0; id < 32; id++ {
		leaf := id / 4
		if part.NodeShard[id] != part.SwitchShard[leaf] {
			t.Fatalf("node %d on shard %d, leaf %d on %d", id, part.NodeShard[id], leaf, part.SwitchShard[leaf])
		}
		counts[part.NodeShard[id]]++
	}
	for s, n := range counts {
		if n != 8 {
			t.Fatalf("shard %d owns %d nodes, want 8", s, n)
		}
	}
}

func TestPartitionRejectsUnsupportedShapes(t *testing.T) {
	p := cost.Default()

	// Crossbar: one leaf group, so only 1 shard.
	xbar := NewCrossbar(sim.NewKernel(), p, 8, 8).Topology()
	if _, err := xbar.Partition(2); err == nil || !strings.Contains(err.Error(), "leaf group") {
		t.Fatalf("crossbar Partition(2) error = %v, want a leaf-group bound", err)
	}

	// Line: leaf-to-leaf trunks, not two-level.
	line := NewLine(sim.NewKernel(), p, 4, 2, 4).Topology()
	if _, err := line.Partition(2); err == nil || !strings.Contains(err.Error(), "node-hosting") {
		t.Fatalf("line Partition(2) error = %v, want the two-level explanation", err)
	}

	// Shard count beyond the leaf groups.
	clos := NewClos(sim.NewKernel(), p, 2, 4, 2, 8).Topology()
	if _, err := clos.Partition(5); err == nil || !strings.Contains(err.Error(), "supports 1..4") {
		t.Fatalf("Partition(5) on 4 leaves error = %v, want the supported range", err)
	}

	// The trivial partition always works.
	for _, topo := range []*Topology{xbar, line, clos} {
		if _, err := topo.Partition(1); err != nil {
			t.Fatalf("Partition(1) failed: %v", err)
		}
	}
}

// delivery is one observed packet arrival for trace comparison.
type delivery struct {
	src, dst int
	at       sim.Time
}

// shardedClos builds one Clos fabric replica per shard on a fresh
// ShardGroup and wires the cross-shard continuation path.
func shardedClos(p *cost.Params, shards, spines, leaves, npl, ports int) (*sim.ShardGroup, []*Fabric, *Partition) {
	g := sim.NewShardGroup(shards, p.SwitchLatency)
	fabs := make([]*Fabric, shards)
	for s := 0; s < shards; s++ {
		fabs[s] = NewClos(g.Shard(s).Kernel(), p, spines, leaves, npl, ports)
	}
	part, err := fabs[0].Topology().Partition(shards)
	if err != nil {
		panic(err)
	}
	// The same wiring as cluster.Fabrics: one bound continuation per
	// replica.
	resume := make([]func(any), shards)
	for s, f := range fabs {
		resume[s] = f.ResumeCross
	}
	for s, f := range fabs {
		sh := g.Shard(s)
		f.SetShard(part, s, func(owner int, at sim.Time, pkt *Packet) {
			sh.Post(owner, at, resume[owner], pkt)
		})
	}
	return g, fabs, part
}

// injection is one scheduled packet for the sharded-vs-single harness.
type injection struct {
	src, dst int
	at       sim.Time
	size     int
}

func runShardedClos(t *testing.T, shards int, injs []injection) []delivery {
	t.Helper()
	p := cost.Default()
	g, fabs, part := shardedClos(p, shards, 4, 8, 4, 16)
	got := make([][]delivery, shards)
	for id := 0; id < 32; id++ {
		s := part.NodeShard[id]
		f, k := fabs[s], g.Shard(s).Kernel()
		f.Attach(id, SinkFunc(func(pkt *Packet) {
			got[s] = append(got[s], delivery{src: pkt.Src, dst: pkt.Dst, at: k.Now()})
			f.Release(pkt)
		}))
	}
	for _, in := range injs {
		in := in
		s := part.NodeShard[in.src]
		f := fabs[s]
		g.Shard(s).Kernel().At(in.at, func() {
			pkt := f.NewPacket()
			pkt.Src, pkt.Dst, pkt.Type = in.src, in.dst, Data
			pkt.HeaderBytes = 16
			pkt.SetPayload(make([]byte, in.size))
			f.Inject(pkt)
		})
	}
	if err := g.Run(); err != nil {
		t.Fatal(err)
	}
	var all []delivery
	for _, d := range got {
		all = append(all, d...)
	}
	sort.Slice(all, func(i, j int) bool {
		a, b := all[i], all[j]
		if a.at != b.at {
			return a.at < b.at
		}
		if a.src != b.src {
			return a.src < b.src
		}
		return a.dst < b.dst
	})
	return all
}

func runSingleClos(t *testing.T, injs []injection) []delivery {
	t.Helper()
	p := cost.Default()
	k := sim.NewKernel()
	f := NewClos(k, p, 4, 8, 4, 16)
	var all []delivery
	for id := 0; id < 32; id++ {
		f.Attach(id, SinkFunc(func(pkt *Packet) {
			all = append(all, delivery{src: pkt.Src, dst: pkt.Dst, at: k.Now()})
			f.Release(pkt)
		}))
	}
	for _, in := range injs {
		in := in
		k.At(in.at, func() {
			pkt := f.NewPacket()
			pkt.Src, pkt.Dst, pkt.Type = in.src, in.dst, Data
			pkt.HeaderBytes = 16
			pkt.SetPayload(make([]byte, in.size))
			f.Inject(pkt)
		})
	}
	if err := k.RunAll(); err != nil {
		t.Fatal(err)
	}
	sort.Slice(all, func(i, j int) bool {
		a, b := all[i], all[j]
		if a.at != b.at {
			return a.at < b.at
		}
		if a.src != b.src {
			return a.src < b.src
		}
		return a.dst < b.dst
	})
	return all
}

// TestShardedFabricMatchesSingleKernel drives uncontended random
// traffic — injections spaced so no two packets ever meet at a port —
// through 2-, 4-, and 8-shard replicas of a 32-node Clos and checks
// every delivery lands at exactly the single-kernel instant. With no
// contention, reservation order cannot matter, so any deviation is a
// timing bug in the cross-shard continuation path.
func TestShardedFabricMatchesSingleKernel(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var injs []injection
		at := sim.Time(0)
		for i := 0; i < 60; i++ {
			src := rng.Intn(32)
			dst := rng.Intn(32)
			for dst == src {
				dst = rng.Intn(32)
			}
			// 100us spacing: far beyond any packet's end-to-end time.
			at = at.Add(100 * sim.Microsecond)
			injs = append(injs, injection{src: src, dst: dst, at: at, size: rng.Intn(256)})
		}
		ref := runSingleClos(t, injs)
		for _, shards := range []int{2, 4, 8} {
			got := runShardedClos(t, shards, injs)
			if len(got) != len(ref) {
				t.Fatalf("seed %d shards %d: %d deliveries, want %d", seed, shards, len(got), len(ref))
			}
			for i := range got {
				if got[i] != ref[i] {
					t.Fatalf("seed %d shards %d: delivery %d = %+v, single kernel %+v",
						seed, shards, i, got[i], ref[i])
				}
			}
		}
	}
}

// TestShardedFabricDeterministic floods the fabric with same-instant
// contended traffic and requires repeated sharded runs to agree
// delivery for delivery — the determinism invariant for any fixed
// shard count.
func TestShardedFabricDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	var injs []injection
	for round := 0; round < 4; round++ {
		for src := 0; src < 32; src++ {
			dst := rng.Intn(32)
			for dst == src {
				dst = rng.Intn(32)
			}
			injs = append(injs, injection{src: src, dst: dst, at: 0, size: 112})
		}
	}
	a := runShardedClos(t, 4, injs)
	b := runShardedClos(t, 4, injs)
	if len(a) != len(b) {
		t.Fatalf("runs delivered %d vs %d packets", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("delivery %d differs across runs: %+v vs %+v", i, a[i], b[i])
		}
	}
	if len(a) != len(injs) {
		t.Fatalf("delivered %d of %d packets", len(a), len(injs))
	}
}
