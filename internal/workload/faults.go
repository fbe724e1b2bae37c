package workload

import (
	"fmt"
	"strings"

	"fm/internal/myrinet"
	"fm/internal/sim"
)

// Fault plans. A FaultPlan is the workload-level description of every
// component outage a run injects: which links, switches, and node
// interfaces go down (or run loss/corruption bursts), and when. Plans
// are pure data — they come from a seed (RandomFaultPlan) or from text
// (ParseFaultPlan), are checked against a concrete topology by
// myrinet.Topology.CheckFaults, and carry no randomness of their own at
// run time, so a plan replays byte-identically at any -workers or
// -shards setting.

// FaultPlan is an ordered list of fault windows plus the seed that
// generated it (zero for hand-written plans). Window order is
// insignificant to the simulation — the fabric sorts windows per
// component — but is preserved so String round-trips.
type FaultPlan struct {
	Seed    uint64
	Windows []myrinet.FaultWindow
}

// Empty reports whether the plan injects nothing.
func (p FaultPlan) Empty() bool { return len(p.Windows) == 0 }

// String renders the plan in the text format ParseFaultPlan accepts:
// windows joined by "; ", each in whole microseconds.
func (p FaultPlan) String() string {
	events := make([]string, len(p.Windows))
	for i, w := range p.Windows {
		events[i] = w.String()
	}
	return strings.Join(events, "; ")
}

// ParseFaultPlan decodes the plan text format: events separated by
// semicolons or newlines, each a window in myrinet.FaultWindow's text
// format, "kind index startUs endUs" with kind one of link, switch,
// node, loss, corrupt. Blank events and #-comments are ignored. The
// decoder checks shape only, since a plan is written against a topology
// it cannot see; myrinet.Topology.CheckFaults checks index range and
// window sanity. It never panics on any input.
func ParseFaultPlan(s string) (FaultPlan, error) {
	var p FaultPlan
	split := func(r rune) bool { return r == ';' || r == '\n' }
	for _, ev := range strings.FieldsFunc(s, split) {
		if i := strings.IndexByte(ev, '#'); i >= 0 {
			ev = ev[:i]
		}
		if ev = strings.TrimSpace(ev); ev == "" {
			continue
		}
		w, err := myrinet.ParseFaultWindow(ev)
		if err != nil {
			return FaultPlan{}, fmt.Errorf("workload: fault event %q: %v", ev, err)
		}
		p.Windows = append(p.Windows, w)
	}
	return p, nil
}

// RandomFaultPlan derives a fault plan from a single seed against a
// topology: n outage windows over components that exist, all opening
// inside the middle of the [0, horizonUs] horizon and closing before
// it ends (so traffic in flight when a fault lands gets bounced, and
// every window's recovery releases whatever it stranded). The draw
// sequence depends only on (seed, topology shape, n, horizonUs), never
// on scheduling, so the same arguments give the same plan on every
// run, worker count, and shard count.
//
// Kind mix: mostly link outages and loss/corruption bursts, with
// occasional node-interface churn, and switch outages only where a
// non-leaf (spine) switch exists — killing a leaf would disconnect its
// nodes outright, which is a different experiment.
func RandomFaultPlan(seed uint64, t *myrinet.Topology, n int, horizonUs int64) FaultPlan {
	if n <= 0 || horizonUs < 16 {
		return FaultPlan{Seed: seed}
	}
	r := newSplitMix64(seed, 0x0fa1175)
	var spines []int
	for sw := 0; sw < t.NumSwitches(); sw++ {
		if !t.HostsNodes(sw) {
			spines = append(spines, sw)
		}
	}
	p := FaultPlan{Seed: seed}
	for i := 0; i < n; i++ {
		// Window: starts in [h/8, h/2), lasts [h/16, h/4) — mid-run, and
		// always recovered well before the horizon.
		start := horizonUs/8 + int64(r.next()%uint64(3*horizonUs/8))
		dur := horizonUs/16 + int64(r.next()%uint64(3*horizonUs/16))
		w := myrinet.FaultWindow{Start: sim.Time(sim.Us(start)), End: sim.Time(sim.Us(start + dur))}
		switch pick := r.next() % 10; {
		case pick < 4 && t.NumLinks() > 0:
			w.Kind = myrinet.LinkFault
			w.Index = int(r.next() % uint64(t.NumLinks()))
		case pick < 6 && t.NumLinks() > 0:
			w.Kind = myrinet.LossBurst
			w.Index = int(r.next() % uint64(t.NumLinks()))
		case pick < 8 && t.NumLinks() > 0:
			w.Kind = myrinet.CorruptBurst
			w.Index = int(r.next() % uint64(t.NumLinks()))
		case pick < 9 && len(spines) > 0:
			w.Kind = myrinet.SwitchFault
			w.Index = spines[r.next()%uint64(len(spines))]
		default:
			w.Kind = myrinet.NodeFault
			w.Index = int(r.next() % uint64(t.NumNodes()))
		}
		p.Windows = append(p.Windows, w)
	}
	return p
}
