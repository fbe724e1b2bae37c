package myrinet

import (
	"fmt"
	"math/rand"
	"testing"

	"fm/internal/cost"
	"fm/internal/sim"
)

// The formulaic fast path's contract: on a healthy structured fabric it
// returns exactly the route BFS would, for every (source switch,
// destination node) pair — including spine starting points, which
// cross-shard continuations and fault bounces resolve from. These tests
// pin the contract on randomized Clos geometries, on every shard
// replica of partitioned fabrics, and across fault toggles (the fast
// path must disengage during active windows and agree with fault-aware
// BFS again once each toggle clears).

// bfsFrom resolves a route with the fast path disabled, through the
// same router state the production path uses.
func bfsFrom(f *Fabric, srcSw, dst int) []hop {
	form := f.topo.form
	f.topo.form = nil
	defer func() { f.topo.form = form }()
	return f.router.routeFrom(srcSw, dst)
}

func hopsEqual(a, b []hop) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// checkAllPairs compares the fast path against BFS for every (srcSw,
// dst) pair on one fabric replica, returning the number of pairs
// checked.
func checkAllPairs(t *testing.T, f *Fabric, label string) int {
	t.Helper()
	pairs := 0
	for srcSw := 0; srcSw < f.NumSwitches(); srcSw++ {
		for dst := 0; dst < f.Nodes(); dst++ {
			got := f.router.routeFrom(srcSw, dst)
			gotCopy := append([]hop(nil), got...)
			want := bfsFrom(f, srcSw, dst)
			if !hopsEqual(gotCopy, want) {
				t.Fatalf("%s: route from switch %d to node %d: form %v != bfs %v",
					label, srcSw, dst, gotCopy, want)
			}
			pairs++
		}
	}
	return pairs
}

// randomClosSpecs yields partition-friendly randomized geometries: the
// leaf count divides evenly for 1/2/4 shards, everything else is free.
func randomClosSpecs(rng *rand.Rand, count int) [][4]int {
	specs := make([][4]int, 0, count)
	for len(specs) < count {
		leaves := []int{4, 8}[rng.Intn(2)]
		spines := 1 + rng.Intn(leaves)
		npl := 1 + rng.Intn(4)
		ports := npl + spines
		if leaves > ports {
			ports = leaves
		}
		specs = append(specs, [4]int{spines, leaves, npl, ports})
	}
	return specs
}

func TestFormRouteMatchesBFSOnRandomClos(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for _, spec := range randomClosSpecs(rng, 12) {
		spines, leaves, npl, ports := spec[0], spec[1], spec[2], spec[3]
		label := fmt.Sprintf("clos(%d,%d,%d,%d)", spines, leaves, npl, ports)
		f := NewClos(sim.NewKernel(), cost.Default(), spines, leaves, npl, ports)
		if f.topo.form == nil {
			t.Fatalf("%s: NewClos did not set the structured form", label)
		}
		if checkAllPairs(t, f, label) == 0 {
			t.Fatalf("%s: no pairs checked", label)
		}
	}
}

func TestFormRouteMatchesBFSOnCrossbar(t *testing.T) {
	f := NewCrossbar(sim.NewKernel(), cost.Default(), 6, 8)
	checkAllPairs(t, f, "crossbar6")
}

// Every shard replica of a partitioned fabric resolves routes
// independently; the fast path must agree with BFS on each replica.
func TestFormRouteMatchesBFSPerShardReplica(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for _, shards := range []int{1, 2, 4} {
		for _, spec := range randomClosSpecs(rng, 4) {
			spines, leaves, npl, ports := spec[0], spec[1], spec[2], spec[3]
			label := fmt.Sprintf("clos(%d,%d,%d,%d)/shards=%d", spines, leaves, npl, ports, shards)
			fabs := make([]*Fabric, shards)
			for s := range fabs {
				fabs[s] = NewClos(sim.NewKernel(), cost.Default(), spines, leaves, npl, ports)
			}
			part, err := fabs[0].Topology().Partition(shards)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			for s := range fabs {
				fabs[s].SetShard(part, s, func(owner int, at sim.Time, pkt *Packet) {})
			}
			for s := range fabs {
				checkAllPairs(t, fabs[s], fmt.Sprintf("%s/replica%d", label, s))
			}
		}
	}
}

// Across a fault timeline: while a link or switch window is active (in
// the mapper's lagged view) the fast path must disengage; at probe
// instants after a toggle clears it must re-engage and agree with
// fault-aware BFS, which by then routes over the fully-healthy graph.
func TestFormRouteFaultToggleEquivalence(t *testing.T) {
	const (
		w1Start = 100 * sim.Microsecond
		w1End   = 300 * sim.Microsecond
		w2Start = 500 * sim.Microsecond
		w2End   = 650 * sim.Microsecond
	)
	for _, shards := range []int{1, 2, 4} {
		label := fmt.Sprintf("shards=%d", shards)
		fabs := make([]*Fabric, shards)
		for s := range fabs {
			fabs[s] = NewClos(sim.NewKernel(), cost.Default(), 4, 4, 2, 8)
		}
		if shards > 1 {
			part, err := fabs[0].Topology().Partition(shards)
			if err != nil {
				t.Fatal(err)
			}
			for s := range fabs {
				fabs[s].SetShard(part, s, func(owner int, at sim.Time, pkt *Packet) {})
			}
		}
		ws := []FaultWindow{
			{Kind: LinkFault, Index: 0, Start: sim.Time(w1Start), End: sim.Time(w1End)},
			{Kind: SwitchFault, Index: 5, Start: sim.Time(w2Start), End: sim.Time(w2End)},
		}
		type probe struct {
			at        sim.Time
			wantQuiet bool
		}
		probes := []probe{
			{at: sim.Time(50 * sim.Microsecond), wantQuiet: true},              // before anything
			{at: sim.Time(w1Start) + sim.Time(DetectLag), wantQuiet: false},    // window 1 detected
			{at: sim.Time(200 * sim.Microsecond), wantQuiet: false},            // mid window 1
			{at: sim.Time(w1End) + sim.Time(DetectLag) + 1, wantQuiet: true},   // window 1 cleared
			{at: sim.Time(400 * sim.Microsecond), wantQuiet: true},             // between windows
			{at: sim.Time(600 * sim.Microsecond), wantQuiet: false},            // mid window 2
			{at: sim.Time(w2End) + sim.Time(DetectLag) + 1, wantQuiet: true},   // window 2 cleared
			{at: sim.Time(1 * sim.Microsecond * 1000 * 10), wantQuiet: true},   // long after
			{at: sim.Time(w1End) + sim.Time(DetectLag), wantQuiet: false},      // recovery boundary stays BFS-side
			{at: sim.Time(w2Start) + sim.Time(DetectLag) - 1, wantQuiet: true}, // just before detection
		}
		for s := range fabs {
			f := fabs[s]
			f.ApplyFaults(ws)
			k := f.k
			for _, pr := range probes {
				pr := pr
				k.AtArg(pr.at, func(any) {
					if quiet := f.faults.routingQuiet(); quiet != pr.wantQuiet {
						t.Errorf("%s: t=%v routingQuiet = %v, want %v", label, k.Now(), quiet, pr.wantQuiet)
						return
					}
					// Equivalence holds at every quiet instant; during an
					// active window both code paths are fault-aware BFS by
					// construction, so comparing is vacuous — instead
					// assert the fast path stayed disengaged above.
					if pr.wantQuiet {
						checkAllPairs(t, f, fmt.Sprintf("%s/t=%v", label, k.Now()))
					}
				}, nil)
			}
			if err := k.RunAll(); err != nil {
				t.Fatal(err)
			}
		}
	}
}
