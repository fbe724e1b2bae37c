package myrinet

import (
	"testing"

	"fm/internal/cost"
	"fm/internal/sim"
)

// faultRig is a 64-node Clos (8 leaves x 8 nodes, 8 spines: switches
// 0-7 are leaves, 8-15 spines) with every delivery recorded.
type faultRig struct {
	k   *sim.Kernel
	f   *Fabric
	got []delivery2
}

// delivery2 records one packet arrival with its fault-relevant fields
// (delivery already names the partition tests' trace type).
type delivery2 struct {
	src, dst int
	typ      PacketType
	bounced  bool
	orig     PacketType
	at       sim.Time
}

func newFaultRig(ws []FaultWindow) *faultRig {
	r := &faultRig{k: sim.NewKernel()}
	r.f = NewClos(r.k, cost.Default(), 8, 8, 8, 16)
	r.f.ApplyFaults(ws)
	for id := 0; id < 64; id++ {
		f := r.f
		f.Attach(id, SinkFunc(func(pkt *Packet) {
			r.got = append(r.got, delivery2{
				src: pkt.Src, dst: pkt.Dst, typ: pkt.Type,
				bounced: pkt.Bounced, orig: pkt.OrigType, at: r.k.Now(),
			})
			f.Release(pkt)
		}))
	}
	return r
}

func (r *faultRig) inject(src, dst int, at sim.Time) {
	f := r.f
	r.k.AtArg(at, func(any) {
		pkt := f.NewPacket()
		pkt.Src, pkt.Dst, pkt.Type = src, dst, Data
		pkt.HeaderBytes = 16
		pkt.SetPayload(make([]byte, 64))
		f.Inject(pkt)
	}, nil)
}

func (r *faultRig) run(t *testing.T) {
	t.Helper()
	if err := r.k.RunAll(); err != nil {
		t.Fatal(err)
	}
}

// win builds a window in microseconds.
func win(kind FaultKind, index int, startUs, endUs int64) FaultWindow {
	return FaultWindow{Kind: kind, Index: index,
		Start: sim.Time(0).Add(sim.Us(startUs)), End: sim.Time(0).Add(sim.Us(endUs))}
}

// linkBetween returns the directed link index from switch a to switch b.
func linkBetween(t *testing.T, topo *Topology, a, b int) int {
	t.Helper()
	for i := 0; i < topo.NumLinks(); i++ {
		if l := topo.links[i]; l.from == a && l.to == b {
			return i
		}
	}
	t.Fatalf("no link %d->%d", a, b)
	return -1
}

// TestLinkFaultBouncesInFlight kills the exact uplink a packet's route
// crosses, with the head arriving mid-window: the fabric must flip the
// frame into a Reject back at the sender, not lose it and not deliver it.
func TestLinkFaultBouncesInFlight(t *testing.T) {
	// Route 0->15 goes leaf0 -> spine7 (switch 15) -> leaf1: the
	// multipath pick is dst mod spines.
	rig := newFaultRig(nil) // throwaway to read the topology
	li := linkBetween(t, rig.f.Topology(), 0, 15)

	rig = newFaultRig([]FaultWindow{win(LinkFault, li, 26, 82)})
	rig.inject(0, 15, sim.Time(0).Add(sim.Us(30)))
	rig.run(t)

	if len(rig.got) != 1 {
		t.Fatalf("got %d deliveries, want 1: %+v", len(rig.got), rig.got)
	}
	d := rig.got[0]
	if d.typ != Reject || !d.bounced || d.orig != Data || d.dst != 0 {
		t.Fatalf("delivery = %+v, want a bounced Reject (orig Data) back at node 0", d)
	}
	fs := rig.f.FaultStats()
	if fs.LinkDowns != 1 || fs.Recoveries != 1 || fs.Bounced != 1 {
		t.Fatalf("stats = %+v, want LinkDowns=1 Recoveries=1 Bounced=1", fs)
	}
	if rig.f.PendingStranded() != 0 {
		t.Fatalf("%d frames stranded", rig.f.PendingStranded())
	}
}

// TestSwitchFaultBouncesThenRecovers kills a spine mid-window (bounce),
// then re-sends the same flow after recovery plus the detection lag
// (normal delivery): the same fabric serves both.
func TestSwitchFaultBouncesThenRecovers(t *testing.T) {
	rig := newFaultRig([]FaultWindow{win(SwitchFault, 15, 26, 82)})
	rig.inject(0, 15, sim.Time(0).Add(sim.Us(30)))  // head hits dead spine
	rig.inject(0, 15, sim.Time(0).Add(sim.Us(150))) // after End+DetectLag
	rig.run(t)

	if len(rig.got) != 2 {
		t.Fatalf("got %d deliveries, want 2: %+v", len(rig.got), rig.got)
	}
	if d := rig.got[0]; d.typ != Reject || d.dst != 0 {
		t.Fatalf("first delivery = %+v, want a Reject back at node 0", d)
	}
	if d := rig.got[1]; d.typ != Data || d.dst != 15 || d.bounced {
		t.Fatalf("second delivery = %+v, want clean Data at node 15", d)
	}
	fs := rig.f.FaultStats()
	if fs.SwitchDowns != 1 || fs.Recoveries != 1 || fs.Bounced != 1 {
		t.Fatalf("stats = %+v, want SwitchDowns=1 Recoveries=1 Bounced=1", fs)
	}
}

// TestSwitchFaultReroutesAfterDetection: an injection after
// Start+DetectLag resolves a route around the dead spine and delivers
// cleanly — the adaptive path, no bounce at all.
func TestSwitchFaultReroutesAfterDetection(t *testing.T) {
	rig := newFaultRig([]FaultWindow{win(SwitchFault, 15, 26, 300)})
	// 60us: past detection at 51us, well inside the outage.
	rig.inject(0, 15, sim.Time(0).Add(sim.Us(60)))
	rig.run(t)

	if len(rig.got) != 1 {
		t.Fatalf("got %d deliveries, want 1: %+v", len(rig.got), rig.got)
	}
	if d := rig.got[0]; d.typ != Data || d.dst != 15 {
		t.Fatalf("delivery = %+v, want clean Data at node 15 via another spine", d)
	}
	if fs := rig.f.FaultStats(); fs.Bounced != 0 || fs.Unroutable != 0 {
		t.Fatalf("rerouted injection still bounced: %+v", fs)
	}
}

// TestNodeFaultBouncesAtDeliverySwitch: a frame addressed to a down
// interface turns around at the delivery switch.
func TestNodeFaultBouncesAtDeliverySwitch(t *testing.T) {
	rig := newFaultRig([]FaultWindow{win(NodeFault, 15, 10, 50)})
	rig.inject(0, 15, sim.Time(0).Add(sim.Us(20)))
	rig.run(t)

	if len(rig.got) != 1 {
		t.Fatalf("got %d deliveries, want 1: %+v", len(rig.got), rig.got)
	}
	if d := rig.got[0]; d.typ != Reject || d.dst != 0 || d.orig != Data {
		t.Fatalf("delivery = %+v, want a Reject back at node 0", d)
	}
	fs := rig.f.FaultStats()
	if fs.NodeDowns != 1 || fs.Bounced != 1 {
		t.Fatalf("stats = %+v, want NodeDowns=1 Bounced=1", fs)
	}
}

// TestNodeFaultStrandsOwnBounce: a down node's own injection bounces at
// the source — and that bounce, aimed back at the down node itself,
// cannot be delivered until the interface recovers. It must strand and
// be released by the recovery toggle, never lost.
func TestNodeFaultStrandsOwnBounce(t *testing.T) {
	rig := newFaultRig([]FaultWindow{win(NodeFault, 15, 10, 50)})
	rig.inject(15, 0, sim.Time(0).Add(sim.Us(20)))
	rig.run(t)

	if len(rig.got) != 1 {
		t.Fatalf("got %d deliveries, want 1: %+v", len(rig.got), rig.got)
	}
	d := rig.got[0]
	if d.typ != Reject || d.dst != 15 {
		t.Fatalf("delivery = %+v, want the Reject back at node 15", d)
	}
	if recovery := sim.Time(0).Add(sim.Us(50)); d.at < recovery {
		t.Fatalf("bounce delivered at %v, before the interface recovered at %v", d.at, recovery)
	}
	fs := rig.f.FaultStats()
	if fs.Unroutable != 1 || fs.Stranded != 1 {
		t.Fatalf("stats = %+v, want Unroutable=1 Stranded=1", fs)
	}
	if rig.f.PendingStranded() != 0 {
		t.Fatalf("%d frames still stranded after recovery", rig.f.PendingStranded())
	}
}

// TestLossBurstDropsDataNotBounces: a loss burst covering both
// directions of a link bounces the data frame crossing it — and the
// resulting Reject recrosses the same lossy span unharmed, because
// bounces are control traffic exempt from bursts.
func TestLossBurstDropsDataNotBounces(t *testing.T) {
	rig := newFaultRig(nil)
	up := linkBetween(t, rig.f.Topology(), 0, 15)
	down := linkBetween(t, rig.f.Topology(), 15, 0)

	rig = newFaultRig([]FaultWindow{
		win(LossBurst, up, 10, 200),
		win(LossBurst, down, 10, 200),
	})
	rig.inject(0, 15, sim.Time(0).Add(sim.Us(30)))
	rig.run(t)

	if len(rig.got) != 1 {
		t.Fatalf("got %d deliveries, want 1: %+v", len(rig.got), rig.got)
	}
	if d := rig.got[0]; d.typ != Reject || d.dst != 0 {
		t.Fatalf("delivery = %+v, want the Reject home at node 0", d)
	}
	fs := rig.f.FaultStats()
	if fs.Lost != 1 || fs.Bounced != 1 {
		t.Fatalf("stats = %+v, want exactly one loss and one bounce", fs)
	}
}

// TestCorruptBurstDetectedAtInterface: a corruption burst marks the
// frame in flight; the delivering interface detects it and bounces the
// frame from the destination switch instead of handing it up.
func TestCorruptBurstDetectedAtInterface(t *testing.T) {
	rig := newFaultRig(nil)
	up := linkBetween(t, rig.f.Topology(), 0, 15)

	rig = newFaultRig([]FaultWindow{win(CorruptBurst, up, 10, 200)})
	rig.inject(0, 15, sim.Time(0).Add(sim.Us(30)))
	rig.run(t)

	if len(rig.got) != 1 {
		t.Fatalf("got %d deliveries, want 1: %+v", len(rig.got), rig.got)
	}
	if d := rig.got[0]; d.typ != Reject || d.dst != 0 || d.orig != Data {
		t.Fatalf("delivery = %+v, want a Reject (orig Data) at node 0", d)
	}
	fs := rig.f.FaultStats()
	if fs.Corrupted != 1 || fs.Bounced != 1 {
		t.Fatalf("stats = %+v, want Corrupted=1 Bounced=1", fs)
	}
}

// FuzzPartition exercises partitioning and fault-degraded forwarding
// over fuzzed Clos geometries: Partition must never panic for any shard
// count, and a fabric with arbitrary in-range outage windows must
// deliver every injection exactly once (as Data or as a Reject) with
// nothing stranded once every window has closed.
func FuzzPartition(f *testing.F) {
	f.Add(uint8(4), uint8(8), uint8(4), uint8(4), uint16(3), uint16(40), uint8(9), uint8(60))
	f.Add(uint8(8), uint8(8), uint8(8), uint8(1), uint16(15), uint16(0), uint8(26), uint8(56))
	f.Add(uint8(1), uint8(2), uint8(1), uint8(7), uint16(999), uint16(999), uint8(0), uint8(1))
	f.Fuzz(func(t *testing.T, spines, leaves, npl, shards uint8, killSw, killLink uint16, startUs, durUs uint8) {
		ns := 1 + int(spines%6)
		nl := 1 + int(leaves%6)
		nn := 1 + int(npl%6)
		// Leaves need npl+spines ports, spines need one per leaf.
		ports := nn + ns
		if nl > ports {
			ports = nl
		}
		p := cost.Default()
		topo := NewClos(sim.NewKernel(), p, ns, nl, nn, ports).Topology()

		// Partition never panics, for counts below, at, and past the bound.
		for s := 1; s <= topo.LeafGroups()+2; s++ {
			if _, err := topo.Partition(s); err != nil && s <= topo.LeafGroups() {
				t.Fatalf("Partition(%d) on %d leaf groups: %v", s, topo.LeafGroups(), err)
			}
		}
		if _, err := topo.Partition(int(shards%12) + 1); err != nil {
			_ = err // out-of-range counts error; panicking is the bug
		}

		// Degrade the fabric: one switch outage, one link loss burst,
		// windows derived from the fuzz input but always in range and
		// always closing.
		start := int64(startUs)
		end := start + 1 + int64(durUs)
		ws := []FaultWindow{
			win(SwitchFault, int(killSw)%topo.NumSwitches(), start, end),
		}
		if topo.NumLinks() > 0 {
			ws = append(ws, win(LossBurst, int(killLink)%topo.NumLinks(), start, end))
		}

		k := sim.NewKernel()
		fab := NewClos(k, p, ns, nl, nn, ports)
		fab.ApplyFaults(ws)
		nodes := fab.Nodes()
		delivered := 0
		for id := 0; id < nodes; id++ {
			fab.Attach(id, SinkFunc(func(pkt *Packet) {
				delivered++
				fab.Release(pkt)
			}))
		}
		injected := 0
		if nodes >= 2 {
			for i := 0; i < 5; i++ {
				src := (int(killSw) + i) % nodes
				dst := (int(killLink) + 3*i + 1) % nodes
				if src == dst {
					continue
				}
				injected++
				at := sim.Time(0).Add(sim.Us(int64(i) * (start + 7) / 3))
				k.AtArg(at, func(any) {
					pkt := fab.NewPacket()
					pkt.Src, pkt.Dst, pkt.Type = src, dst, Data
					pkt.HeaderBytes = 16
					pkt.SetPayload(make([]byte, 32))
					fab.Inject(pkt)
				}, nil)
			}
		}
		if err := k.RunAll(); err != nil {
			t.Fatal(err)
		}
		if delivered != injected {
			t.Fatalf("geometry %dx%dx%d faults %v: delivered %d of %d injections",
				ns, nl, nn, ws, delivered, injected)
		}
		if fab.PendingStranded() != 0 {
			t.Fatalf("geometry %dx%dx%d: %d frames stranded after all windows closed",
				ns, nl, nn, fab.PendingStranded())
		}
	})
}
