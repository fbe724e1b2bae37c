package workload

import (
	"fmt"
	"slices"
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

// usWindow builds a fault window from whole microseconds.
func usWindow(kind myrinet.FaultKind, index int, startUs, endUs int64) myrinet.FaultWindow {
	return myrinet.FaultWindow{Kind: kind, Index: index,
		Start: sim.Time(0).Add(sim.Us(startUs)), End: sim.Time(0).Add(sim.Us(endUs))}
}

func TestParseFaultPlanRoundTrip(t *testing.T) {
	text := "link 3 10 40; switch 1 20 60\nnode 0 5 15; loss 2 30 50; corrupt 4 1 99"
	p, err := ParseFaultPlan(text)
	if err != nil {
		t.Fatal(err)
	}
	want := []myrinet.FaultWindow{
		usWindow(myrinet.LinkFault, 3, 10, 40),
		usWindow(myrinet.SwitchFault, 1, 20, 60),
		usWindow(myrinet.NodeFault, 0, 5, 15),
		usWindow(myrinet.LossBurst, 2, 30, 50),
		usWindow(myrinet.CorruptBurst, 4, 1, 99),
	}
	if !slices.Equal(p.Windows, want) {
		t.Fatalf("parsed %v, want %v", p.Windows, want)
	}
	// String renders the canonical text; parsing it again is identical.
	if got := p.String(); got != "link 3 10 40; switch 1 20 60; node 0 5 15; loss 2 30 50; corrupt 4 1 99" {
		t.Fatalf("String() = %q", got)
	}
	again, err := ParseFaultPlan(p.String())
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(again.Windows, p.Windows) {
		t.Fatalf("round trip changed the plan: %v vs %v", again.Windows, p.Windows)
	}
}

func TestParseFaultPlanIgnoresNoise(t *testing.T) {
	p, err := ParseFaultPlan("  # a comment\n\nlink 0 1 2 # trailing\n;;\n")
	if err != nil {
		t.Fatal(err)
	}
	if want := []myrinet.FaultWindow{usWindow(myrinet.LinkFault, 0, 1, 2)}; !slices.Equal(p.Windows, want) {
		t.Fatalf("parsed %v", p.Windows)
	}
}

func TestParseFaultPlanErrors(t *testing.T) {
	for _, bad := range []string{
		"link 0 1",                              // too few fields
		"link 0 1 2 3",                          // too many
		"quark 0 1 2",                           // unknown kind
		"link x 1 2",                            // bad index
		"link 0 x 2",                            // bad start
		"link 0 1 x",                            // bad end
		"link 0 1 9223372036855",                // end past the picosecond clock
		"link 0 -9223372036855 1",               // start before it
		"link 0 1 9223372036854775808",          // not an int64 at all
		"switch 1 2 3; link 0 1 99999999999999", // a later event
	} {
		if _, err := ParseFaultPlan(bad); err == nil {
			t.Fatalf("ParseFaultPlan(%q) accepted", bad)
		}
	}
	// The largest instant the clock holds parses.
	if _, err := ParseFaultPlan("link 0 0 9223372036854"); err != nil {
		t.Fatal(err)
	}
}

// TestFaultPlanWindowsValidates: a parsed plan's windows pass
// myrinet.Topology.CheckFaults only when every window fits the fabric
// and the horizon, and the error names the offending event.
func TestFaultPlanWindowsValidates(t *testing.T) {
	spec := ClosSpec(16)
	topo := spec.Build(sim.NewKernel(), cost.Default()).Topology()
	horizon := sim.Time(0).Add(sim.Us(100))
	ok, err := ParseFaultPlan("link 0 10 20; node 15 0 100")
	if err != nil {
		t.Fatal(err)
	}
	if err := topo.CheckFaults(ok.Windows, horizon); err != nil {
		t.Fatal(err)
	}
	for _, bad := range []string{
		fmt.Sprintf("link %d 10 20", topo.NumLinks()),    // link index range
		fmt.Sprintf("switch %d 1 2", topo.NumSwitches()), // switch index range
		fmt.Sprintf("corrupt %d 1 2", topo.NumLinks()),   // burst index range
		"node -1 1 2",   // negative index
		"link 0 20 20",  // empty window
		"link 0 -5 20",  // negative start
		"link 0 10 200", // past horizon
	} {
		p, err := ParseFaultPlan("loss 1 10 20; " + bad)
		if err != nil {
			t.Fatal(err)
		}
		err = topo.CheckFaults(p.Windows, horizon)
		if err == nil || !strings.Contains(err.Error(), "fault window "+bad+":") {
			t.Fatalf("CheckFaults(%q) = %v, want an error naming the event", bad, err)
		}
	}
	unknown := []myrinet.FaultWindow{{Kind: 9, Index: 0, Start: 1, End: 2}}
	if err := topo.CheckFaults(unknown, 0); err == nil || !strings.Contains(err.Error(), "unknown kind") {
		t.Fatalf("unknown kind: err %v", err)
	}
	// Horizon 0 leaves the window's end unbounded.
	if err := topo.CheckFaults([]myrinet.FaultWindow{usWindow(myrinet.LinkFault, 0, 10, 9000)}, 0); err != nil {
		t.Fatal(err)
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
	if len(a.Windows) != 6 {
		t.Fatalf("generated %d windows, want 6", len(a.Windows))
	}
	if err := topo.CheckFaults(a.Windows, sim.Time(0).Add(sim.Us(400))); err != nil {
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
	ws := []myrinet.FaultWindow{
		usWindow(myrinet.LinkFault, 0, 20, 120),
		usWindow(myrinet.LossBurst, 3, 30, 90),
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
	ws := RandomFaultPlan(42, topo, 5, 300).Windows
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
		if !slices.Equal(again.Windows, p.Windows) {
			t.Fatalf("round trip changed the plan: %v vs %v", again.Windows, p.Windows)
		}
	})
}
