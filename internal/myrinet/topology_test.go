package myrinet

import (
	"testing"

	"fm/internal/cost"
	"fm/internal/sim"
)

func TestClosHopCounts(t *testing.T) {
	k := sim.NewKernel()
	p := cost.Default()
	// 2 spines, 2 leaves, 2 nodes per leaf: nodes 0,1 | 2,3.
	f := NewClos(k, p, 2, 2, 2, 8)
	if f.Nodes() != 4 {
		t.Fatalf("nodes = %d", f.Nodes())
	}
	if f.NumSwitches() != 4 {
		t.Fatalf("switches = %d", f.NumSwitches())
	}
	if got := f.Hops(0, 1); got != 1 {
		t.Errorf("same-leaf hops = %d, want 1", got)
	}
	if got := f.Hops(0, 3); got != 3 {
		t.Errorf("cross-leaf hops = %d, want 3 (leaf, spine, leaf)", got)
	}
}

func TestClosDeliveryTimingMatchesMinLatency(t *testing.T) {
	k := sim.NewKernel()
	p := cost.Default()
	f := NewClos(k, p, 2, 2, 2, 8)
	var got []*Packet
	var at []sim.Time
	for i := 0; i < f.Nodes(); i++ {
		f.Attach(i, collector(&got, &at, k))
	}
	// 64B payload + 16B header = 80 wire bytes = 1000 ns on the link.
	pkt := &Packet{Src: 0, Dst: 3, Type: Data, Payload: make([]byte, 64), HeaderBytes: 16}
	k.At(0, func() { f.Inject(pkt) })
	if err := k.RunAll(); err != nil {
		t.Fatal(err)
	}
	want := sim.Time(3*sim.Ns(550) + sim.Ns(1000))
	if len(at) != 1 || at[0] != want {
		t.Errorf("cross-leaf delivery at %v, want %v", at, want)
	}
	if f.MinLatency(0, 3, 80) != sim.Duration(want) {
		t.Errorf("MinLatency = %v, want %v", f.MinLatency(0, 3, 80), want)
	}
}

// spineOf returns the middle switch of a three-hop Clos route: the
// spine a packet from src to dst crosses.
func spineOf(f *Fabric, src, dst int) *Switch {
	return f.switches[f.router.route(src, dst)[1].sw]
}

// Spine selection is destination-deterministic: two destinations on the
// same remote leaf ride different spines, and rebuilding the fabric
// yields identical routes.
func TestClosSpineSpreadingDeterministic(t *testing.T) {
	build := func() (*Fabric, *sim.Kernel) {
		k := sim.NewKernel()
		return NewClos(k, cost.Default(), 2, 2, 2, 8), k
	}
	f, _ := build()
	s2 := spineOf(f, 0, 2)
	s3 := spineOf(f, 0, 3)
	if s2 == s3 {
		t.Errorf("destinations 2 and 3 both routed via the same spine")
	}
	f2, _ := build()
	if spineOf(f2, 0, 2).name != s2.name || spineOf(f2, 0, 3).name != s3.name {
		t.Error("spine selection differs across identical constructions")
	}
}

// Two same-leaf senders whose destinations ride different spines do not
// contend anywhere: both arrive at the contention-free minimum.
func TestClosDisjointSpinePathsDoNotSerialize(t *testing.T) {
	k := sim.NewKernel()
	p := cost.Default()
	f := NewClos(k, p, 2, 2, 2, 8)
	var got []*Packet
	var at []sim.Time
	for i := 0; i < f.Nodes(); i++ {
		f.Attach(i, collector(&got, &at, k))
	}
	mk := func(src, dst int) *Packet {
		return &Packet{Src: src, Dst: dst, Type: Data, Payload: make([]byte, 64), HeaderBytes: 16}
	}
	k.At(0, func() {
		f.Inject(mk(0, 2)) // via spine0
		f.Inject(mk(1, 3)) // via spine1
	})
	if err := k.RunAll(); err != nil {
		t.Fatal(err)
	}
	want := sim.Time(f.MinLatency(0, 2, 80))
	if len(at) != 2 || at[0] != want || at[1] != want {
		t.Errorf("deliveries at %v, want both at %v", at, want)
	}
}

// Two packets converging on the same spine downlink serialize FIFO.
func TestClosSharedSpineSerializes(t *testing.T) {
	k := sim.NewKernel()
	p := cost.Default()
	f := NewClos(k, p, 2, 2, 2, 8)
	var got []*Packet
	var at []sim.Time
	for i := 0; i < f.Nodes(); i++ {
		f.Attach(i, collector(&got, &at, k))
	}
	mk := func(src, dst int) *Packet {
		return &Packet{Src: src, Dst: dst, Type: Data, Payload: make([]byte, 64), HeaderBytes: 16}
	}
	// Both routes end at leaf1 port 0 via spine0: the second worm queues.
	k.At(0, func() {
		f.Inject(mk(0, 2))
		f.Inject(mk(1, 2))
	})
	if err := k.RunAll(); err != nil {
		t.Fatal(err)
	}
	wire := sim.Duration(80) * p.LinkByte
	first := sim.Time(f.MinLatency(0, 2, 80))
	second := first.Add(wire)
	if len(at) != 2 || at[0] != first || at[1] != second {
		t.Errorf("deliveries at %v, want %v then %v", at, first, second)
	}
}

// A shared trunk on the line fabric serializes the same way.
func TestLineTrunkContentionSerializes(t *testing.T) {
	k := sim.NewKernel()
	p := cost.Default()
	f := NewLine(k, p, 2, 2, 8) // nodes 0,1 | 2,3
	var got []*Packet
	var at []sim.Time
	for i := 0; i < f.Nodes(); i++ {
		f.Attach(i, collector(&got, &at, k))
	}
	mk := func(src, dst int) *Packet {
		return &Packet{Src: src, Dst: dst, Type: Data, Payload: make([]byte, 64), HeaderBytes: 16}
	}
	// 0->2 and 1->3 share only the sw0->sw1 trunk; the second is delayed
	// by one wire time there and nowhere else.
	k.At(0, func() {
		f.Inject(mk(0, 2))
		f.Inject(mk(1, 3))
	})
	if err := k.RunAll(); err != nil {
		t.Fatal(err)
	}
	wire := sim.Duration(80) * p.LinkByte
	first := sim.Time(f.MinLatency(0, 2, 80))
	if len(at) != 2 || at[0] != first || at[1] != first.Add(wire) {
		t.Errorf("deliveries at %v, want %v then %v", at, first, first.Add(wire))
	}
}

func TestClos64NodeFullyRouted(t *testing.T) {
	k := sim.NewKernel()
	// 8 spines, 8 leaves, 8 nodes per leaf = 64 nodes on 16-port switches.
	f := NewClos(k, cost.Default(), 8, 8, 8, 16)
	if f.Nodes() != 64 {
		t.Fatalf("nodes = %d", f.Nodes())
	}
	if f.NumSwitches() != 16 {
		t.Fatalf("switches = %d", f.NumSwitches())
	}
	spines := map[*Switch]bool{}
	for s := 0; s < 64; s++ {
		for d := 0; d < 64; d++ {
			if s == d {
				continue
			}
			want := 1
			if s/8 != d/8 {
				want = 3
			}
			if got := f.Hops(s, d); got != want {
				t.Fatalf("Hops(%d,%d) = %d, want %d", s, d, got, want)
			}
			if want == 3 {
				spines[spineOf(f, s, d)] = true
			}
		}
	}
	if len(spines) != 8 {
		t.Errorf("cross-leaf traffic uses %d of 8 spines", len(spines))
	}
}

func TestClosPortExhaustionPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic: 8 nodes + 2 spines exceed 8 ports")
		}
	}()
	NewClos(sim.NewKernel(), cost.Default(), 2, 2, 8, 8)
}

func TestTopologyValidate(t *testing.T) {
	// Output port claimed by both a node and a link.
	tp := NewTopology()
	a := tp.AddSwitch("a", 4)
	b := tp.AddSwitch("b", 4)
	tp.AttachNode(a, 0)
	tp.Link(a, 0, b)
	if err := tp.Validate(); err == nil {
		t.Error("double-claimed port not rejected")
	}

	// Port out of range.
	tp2 := NewTopology()
	s := tp2.AddSwitch("s", 2)
	tp2.AttachNode(s, 5)
	if err := tp2.Validate(); err == nil {
		t.Error("out-of-range port not rejected")
	}

	// A valid two-switch topology passes.
	tp3 := NewTopology()
	x := tp3.AddSwitch("x", 4)
	y := tp3.AddSwitch("y", 4)
	tp3.AttachNode(x, 0)
	tp3.AttachNode(y, 0)
	tp3.Link(x, 1, y)
	tp3.Link(y, 1, x)
	if err := tp3.Validate(); err != nil {
		t.Errorf("valid topology rejected: %v", err)
	}
}

func TestDisconnectedTopologyPanics(t *testing.T) {
	tp := NewTopology()
	a := tp.AddSwitch("a", 4)
	b := tp.AddSwitch("b", 4)
	tp.AttachNode(a, 0)
	tp.AttachNode(b, 0)
	defer func() {
		if recover() == nil {
			t.Error("expected panic on unroutable pair")
		}
	}()
	NewFabric(sim.NewKernel(), cost.Default(), tp)
}
