package workload

import (
	"strings"
	"testing"

	"fm/internal/core"
	"fm/internal/cost"
	"fm/internal/myrinet"
	"fm/internal/sim"
)

// downs totals the outage windows a run saw begin, over all three
// component classes.
func downs(s myrinet.FaultStats) uint64 { return s.LinkDowns + s.SwitchDowns + s.NodeDowns }

func TestParseFaultPlanRoundTrip(t *testing.T) {
	text := "link 3 10 40; switch 1 20 60\nnode 0 5 15; loss 2 30 50; corrupt 4 1 99"
	p, err := ParseFaultPlan(text)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Events) != 5 {
		t.Fatalf("parsed %d events, want 5", len(p.Events))
	}
	want := []FaultEvent{
		{myrinet.LinkFault, 3, 10, 40},
		{myrinet.SwitchFault, 1, 20, 60},
		{myrinet.NodeFault, 0, 5, 15},
		{myrinet.LossBurst, 2, 30, 50},
		{myrinet.CorruptBurst, 4, 1, 99},
	}
	for i, e := range p.Events {
		if e != want[i] {
			t.Fatalf("event %d = %+v, want %+v", i, e, want[i])
		}
	}
	// String renders the canonical text; parsing it again is identical.
	again, err := ParseFaultPlan(p.String())
	if err != nil {
		t.Fatal(err)
	}
	if len(again.Events) != len(p.Events) {
		t.Fatalf("round-trip lost events: %v vs %v", again.Events, p.Events)
	}
	for i := range again.Events {
		if again.Events[i] != p.Events[i] {
			t.Fatalf("round-trip event %d = %+v, want %+v", i, again.Events[i], p.Events[i])
		}
	}
}

func TestParseFaultPlanIgnoresNoise(t *testing.T) {
	p, err := ParseFaultPlan("  # a comment\n\nlink 0 1 2 # trailing\n;;\n")
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Events) != 1 || p.Events[0] != (FaultEvent{myrinet.LinkFault, 0, 1, 2}) {
		t.Fatalf("parsed %+v", p.Events)
	}
}

func TestParseFaultPlanErrors(t *testing.T) {
	for _, bad := range []string{
		"link 0 1",     // too few fields
		"link 0 1 2 3", // too many
		"quark 0 1 2",  // unknown kind
		"link x 1 2",   // bad index
		"link 0 x 2",   // bad start
		"link 0 1 x",   // bad end
	} {
		if _, err := ParseFaultPlan(bad); err == nil {
			t.Fatalf("ParseFaultPlan(%q) accepted", bad)
		}
	}
}

func TestFaultPlanWindowsValidates(t *testing.T) {
	spec := ClosSpec(16)
	topo := spec.Build(sim.NewKernel(), cost.Default()).Topology()
	ok := FaultPlan{Events: []FaultEvent{{myrinet.LinkFault, 0, 10, 20}}}
	if _, err := ok.Windows(topo, 100); err != nil {
		t.Fatal(err)
	}
	for _, bad := range []FaultEvent{
		{myrinet.LinkFault, topo.NumLinks(), 10, 20},    // link index range
		{myrinet.SwitchFault, topo.NumSwitches(), 1, 2}, // switch index range
		{myrinet.NodeFault, -1, 1, 2},                   // negative index
		{myrinet.LinkFault, 0, 20, 20},                  // empty window
		{myrinet.LinkFault, 0, -5, 20},                  // negative start
		{myrinet.LinkFault, 0, 10, 200},                 // past horizon
	} {
		p := FaultPlan{Events: []FaultEvent{bad}}
		if _, err := p.Windows(topo, 100); err == nil {
			t.Fatalf("Windows accepted %+v", bad)
		}
	}
}

func TestRandomFaultPlanDeterministic(t *testing.T) {
	spec := ClosSpec(32)
	topo := spec.Build(sim.NewKernel(), cost.Default()).Topology()
	a := RandomFaultPlan(1995, topo, 6, 400)
	b := RandomFaultPlan(1995, topo, 6, 400)
	if a.String() != b.String() {
		t.Fatalf("same seed, different plans:\n%s\n%s", a, b)
	}
	if len(a.Events) != 6 {
		t.Fatalf("generated %d events, want 6", len(a.Events))
	}
	if _, err := a.Windows(topo, 400); err != nil {
		t.Fatalf("generated plan does not validate: %v", err)
	}
	c := RandomFaultPlan(7, topo, 6, 400)
	if a.String() == c.String() {
		t.Fatal("different seeds produced the same plan")
	}
}

// TestDriveFMFaultsDelivers is the pipeline smoke: a mid-run link kill
// plus a loss burst on a 16-node Clos still delivers every all-to-all
// message, with the retransmit machinery visibly exercised.
func TestDriveFMFaultsDelivers(t *testing.T) {
	spec := ClosSpec(16)
	topo := spec.Build(sim.NewKernel(), cost.Default()).Topology()
	plan := FaultPlan{Events: []FaultEvent{
		{myrinet.LinkFault, 0, 20, 120},
		{myrinet.LossBurst, 3, 30, 90},
	}}
	ws, err := plan.Windows(topo, 0)
	if err != nil {
		t.Fatal(err)
	}
	res := DriveFMFaultsSharded(spec, core.DefaultConfig(), cost.Default(), AllToAll{Rounds: 2}, 64, ws, 1)
	if int(res.Stats.Delivered) != res.Messages {
		t.Fatalf("delivered %d/%d", res.Stats.Delivered, res.Messages)
	}
	if res.Stranded != 0 {
		t.Fatalf("%d frames stranded", res.Stranded)
	}
	if downs(res.Fault) == 0 || res.Fault.Recoveries == 0 {
		t.Fatalf("fault toggles unobserved: %+v", res.Fault)
	}
	if res.LastDelivery <= 0 || res.LastDelivery > res.Elapsed {
		t.Fatalf("LastDelivery = %v, Elapsed = %v", res.LastDelivery, res.Elapsed)
	}
}

// TestDriveFMFaultsEmptyPlanMatchesDriveFM pins the no-fault behavior:
// with no windows the fault driver observes the same traffic as DriveFM
// (message totals, latency distribution and quiescence instant), and
// its last delivery lands no later than DriveFM's quiescence.
func TestDriveFMFaultsEmptyPlanMatchesDriveFM(t *testing.T) {
	spec := ClosSpec(16)
	cfg := core.DefaultConfig()
	p := cost.Default()
	pat := AllToAll{Rounds: 1}
	clean := DriveFM(spec, cfg, p, pat, 64)
	faulted := DriveFMFaultsSharded(spec, cfg, p, pat, 64, nil, 1)
	if faulted.Messages != clean.Messages || faulted.PayloadBytes != clean.PayloadBytes {
		t.Fatalf("totals differ: %+v vs %+v", faulted.Result, clean)
	}
	if faulted.Latency != clean.Latency {
		t.Fatal("latency distribution differs with an empty plan")
	}
	if faulted.Elapsed != clean.Elapsed {
		t.Fatalf("quiescence %v, DriveFM %v", faulted.Elapsed, clean.Elapsed)
	}
	if faulted.LastDelivery > clean.Elapsed {
		t.Fatalf("last delivery %v after quiescence %v", faulted.LastDelivery, clean.Elapsed)
	}
	if faulted.Stats.Retransmits != 0 || faulted.Stats.NetBounces != 0 || downs(faulted.Fault) != 0 {
		t.Fatalf("phantom fault activity on an empty plan: %+v %+v", faulted.Stats, faulted.Fault)
	}
}

// TestDriveFMFaultsShardedAgrees drives the same plan on one shard and
// across 2 and 4 shards: delivery is complete everywhere and the
// contention-invariant aggregates agree (totals, zero stranding, zero
// duplicates); timing-dependent counters may differ across shard counts
// within the reservation-order ambiguity documented on DriveRawSharded.
func TestDriveFMFaultsShardedAgrees(t *testing.T) {
	spec := ClosSpec(32)
	cfg := core.DefaultConfig()
	p := cost.Default()
	topo := spec.Build(sim.NewKernel(), p).Topology()
	plan := RandomFaultPlan(42, topo, 5, 300)
	ws, err := plan.Windows(topo, 0)
	if err != nil {
		t.Fatal(err)
	}
	pat := AllToAll{Rounds: 1}
	single := DriveFMFaultsSharded(spec, cfg, p, pat, 64, ws, 1)
	for _, shards := range []int{2, 4} {
		sh := DriveFMFaultsSharded(spec, cfg, p, pat, 64, ws, shards)
		if sh.Messages != single.Messages || int(sh.Stats.Delivered) != sh.Messages {
			t.Fatalf("shards=%d delivered %d/%d (single %d)", shards, sh.Stats.Delivered, sh.Messages, single.Messages)
		}
		if sh.Stranded != 0 || sh.Stats.Duplicates != 0 {
			t.Fatalf("shards=%d stranded=%d duplicates=%d", shards, sh.Stranded, sh.Stats.Duplicates)
		}
		if downs(sh.Fault) != downs(single.Fault) || sh.Fault.Recoveries != single.Fault.Recoveries {
			t.Fatalf("shards=%d toggle counts diverge: %+v vs %+v", shards, sh.Fault, single.Fault)
		}
	}
	// And a fixed shard count reproduces itself exactly.
	a := DriveFMFaultsSharded(spec, cfg, p, pat, 64, ws, 2)
	b := DriveFMFaultsSharded(spec, cfg, p, pat, 64, ws, 2)
	if a.Elapsed != b.Elapsed || a.LastDelivery != b.LastDelivery || a.Stats != b.Stats || a.Fault != b.Fault ||
		a.Latency != b.Latency {
		t.Fatal("sharded faulted run is not reproducible")
	}
}

// FuzzParseFaultPlan asserts the decoder never panics and that every
// accepted plan round-trips through its canonical rendering.
func FuzzParseFaultPlan(f *testing.F) {
	f.Add("link 3 10 40; switch 1 20 60")
	f.Add("node 0 5 15\nloss 2 30 50")
	f.Add("# only a comment")
	f.Add("corrupt 4 -1 -2;;; link")
	f.Fuzz(func(t *testing.T, s string) {
		p, err := ParseFaultPlan(s)
		if err != nil {
			return
		}
		again, err := ParseFaultPlan(p.String())
		if err != nil {
			t.Fatalf("canonical form %q rejected: %v", p.String(), err)
		}
		if len(again.Events) != len(p.Events) {
			t.Fatalf("round trip changed event count: %d vs %d", len(again.Events), len(p.Events))
		}
		for i := range again.Events {
			if again.Events[i] != p.Events[i] {
				t.Fatalf("round trip changed event %d: %+v vs %+v", i, again.Events[i], p.Events[i])
			}
		}
		_ = strings.TrimSpace(s)
	})
}
