package bench

import (
	"fmt"
	"strings"

	"fm/internal/core"
	"fm/internal/cost"
	"fm/internal/metrics"
	"fm/internal/myrinet"
	"fm/internal/sim"
	"fm/internal/workload"
)

// The resilience experiment: inject a seeded fault plan — link and
// switch outages, node-interface churn, loss and corruption bursts —
// into a 2-level Clos mid-traffic and measure what the FM reliability
// layer does about it: degraded-mode bisection bandwidth, retransmit
// counts, and recovery time. The FM drive panics if any message goes
// undelivered, duplicated, or stranded, so a report existing at all is
// the delivery proof.
//
// Everything printed is invariant across -workers and -shards: fault
// toggles replay at identical virtual instants on every shard replica,
// and the report sticks to counters and the bisection completion times,
// which the determinism pin (faults_test.go) holds byte-identical from
// 1 through 8 shards. The faulted all-to-all's completion instant and
// latency percentiles are the one place shard count can legitimately
// show (contention under recovery resolves in merged head-arrival
// order; DESIGN.md "Parallel engine"), so those stay out of the report.

// faultHorizonUs bounds the fault plan: every window must close by this
// virtual instant, so every strand is released and the run terminates.
// Random plans draw their windows inside the middle of the horizon,
// which sits inside the traffic for every fabric size the experiment
// accepts.
const faultHorizonUs = 400

// faultNodes is the node count the faults experiment builds for
// opt.FaultNodes: at least 8, rounded up to even for the bisection
// pairing.
func faultNodes(opt Options) int {
	return workload.AdjustNodes(workload.Bisection{}, max(opt.FaultNodes, 8))
}

// faultTimeline resolves the experiment's fault plan on clos-n, the
// fabric faultNodes sizes, and checks it against that fabric: a
// hand-written -fault-plan if given, the empty plan for -fault-seed 0
// (the clean baseline), and the seeded random plan otherwise.
func faultTimeline(opt Options, n int) (workload.FaultPlan, error) {
	topo := workload.ClosSpec(n).Build(sim.NewKernel(), cost.Default()).Topology()

	var plan workload.FaultPlan
	switch {
	case opt.FaultPlan != "":
		var err error
		if plan, err = workload.ParseFaultPlan(opt.FaultPlan); err != nil {
			return plan, err
		}
	case opt.FaultSeed != 0:
		plan = workload.RandomFaultPlan(opt.FaultSeed, topo, 5, faultHorizonUs)
	}
	return plan, topo.CheckFaults(plan.Windows, sim.Time(sim.Us(faultHorizonUs)))
}

// ValidateFaults checks, before any experiment runs, that the Clos the
// options size can be built (checkClos), that -shards is within its
// leaf groups, and that the fault plan fits it. Only the plan needs the
// fabric built, so it is checked last.
func ValidateFaults(opt Options) error {
	n := faultNodes(opt)
	if err := checkClos("-fault-nodes", n); err != nil {
		return err
	}
	_, groups := workload.Geometry(n)
	if err := checkShards(opt, "faults", groups, fmt.Sprintf(
		"the faults experiment runs one 2-level Clos, and clos-%d has %d leaf groups", n, groups)); err != nil {
		return err
	}
	_, err := faultTimeline(opt, n)
	return err
}

// Faults regenerates the resilience report on a clos-FaultNodes fabric
// (default 32): the all-to-all delivery proof under the plan, clean vs.
// degraded bisection bandwidth, and the recovery time.
func Faults(opt Options) *Report {
	p := cost.Default()
	cfg := core.DefaultConfig()
	n := faultNodes(opt)
	plan, err := faultTimeline(opt, n)
	if err != nil {
		panic(fmt.Sprintf("bench: faults: %v", err))
	}
	spec := workload.ClosSpec(n)
	r := &Report{ID: "faults", Title: fmt.Sprintf("Resilience under injected faults on clos-%d", n)}

	// Three independent deterministic runs: the all-to-all under the
	// plan (the delivery and retransmit measurement), and the bisection
	// pair (clean vs. degraded) for bandwidth and recovery time.
	var a2a, bis, degBis workload.FaultResult
	runParallel(opt.Workers, []func(){
		func() {
			a2a = workload.DriveFMFaultsSharded(spec, cfg, p, workload.AllToAll{Rounds: 1}, framePayload, plan.Windows, opt.Shards)
		},
		func() {
			bis = workload.DriveFMFaultsSharded(spec, cfg, p, workload.Bisection{Packets: 32}, framePayload, nil, opt.Shards)
		},
		func() {
			degBis = workload.DriveFMFaultsSharded(spec, cfg, p, workload.Bisection{Packets: 32}, framePayload, plan.Windows, opt.Shards)
		},
	})

	us := func(d sim.Duration) float64 { return float64(d) / float64(sim.Microsecond) }
	bisBW := metrics.Bandwidth(framePayload, bis.Messages, bis.LastDelivery)
	degBW := metrics.Bandwidth(framePayload, degBis.Messages, degBis.LastDelivery)
	recovery := us(degBis.LastDelivery) - us(bis.LastDelivery)
	if recovery < 0 {
		recovery = 0
	}
	fs := a2a.Fault // per-run toggle counters; the bisection replay of the same plan would double-count
	r.KVs = append(r.KVs,
		KV{"fault events injected", fmt.Sprintf("%d", len(plan.Windows)), "-"},
		KV{"component downs (link/switch/node)", fmt.Sprintf("%d/%d/%d", fs.LinkDowns, fs.SwitchDowns, fs.NodeDowns), "-"},
		KV{"recoveries", fmt.Sprintf("%d", fs.Recoveries), "all downs"},
		KV{"all-to-all delivered under faults", fmt.Sprintf("%d/%d", a2a.Stats.Delivered, a2a.Messages), "100%"},
		KV{"all-to-all retransmits", fmt.Sprintf("%d", a2a.Stats.Retransmits), "-"},
		KV{"fabric bounces (a2a / bisection)", fmt.Sprintf("%d/%d", a2a.Fault.Bounced, degBis.Fault.Bounced), "-"},
		KV{"frames lost / corrupted (a2a)", fmt.Sprintf("%d/%d", a2a.Fault.Lost, a2a.Fault.Corrupted), "-"},
		KV{"clean bisection completion (us)", fmt.Sprintf("%.1f", us(bis.LastDelivery)), "-"},
		KV{"clean bisection BW (MB/s)", fmt.Sprintf("%.0f", bisBW), "-"},
		KV{"degraded bisection completion (us)", fmt.Sprintf("%.1f", us(degBis.LastDelivery)), "-"},
		KV{"degraded bisection BW (MB/s)", fmt.Sprintf("%.0f", degBW), "-"},
		KV{"degraded/clean bisection BW", fmt.Sprintf("%.1f%%", 100*degBW/bisBW), "-"},
		KV{"recovery time (us)", fmt.Sprintf("%.1f", recovery), "-"},
	)

	if !plan.Empty() {
		tab := Table{Name: "fault plan", Header: []string{"kind", "component", "start (us)", "end (us)"}}
		for _, w := range plan.Windows {
			// The plan text format's four fields are the table's columns.
			tab.Rows = append(tab.Rows, strings.Fields(w.String()))
		}
		r.Tables = append(r.Tables, tab)
	}

	switch {
	case opt.FaultPlan != "":
		r.Notes = append(r.Notes, "hand-written fault plan (-fault-plan): "+plan.String())
	case plan.Empty():
		r.Notes = append(r.Notes, "empty fault plan (-fault-seed 0): clean baseline, nothing injected")
	default:
		r.Notes = append(r.Notes, fmt.Sprintf("fault plan derived from -fault-seed %d (5 events over a %dus horizon): %s",
			plan.Seed, int64(faultHorizonUs), plan))
	}
	r.Notes = append(r.Notes,
		fmt.Sprintf("routing notices a component change only %v after the wire (mapper detection lag); frames caught on a dead hop bounce back to their sender as fabric rejects and re-enter via the FM retransmit path (DESIGN.md \"Fault model\")", myrinet.DetectLag),
		"the drivers panic on any undelivered, duplicated, or stranded message, so this report existing is the exactly-once delivery proof",
		"recovery time is the extra completion time of the degraded bisection run over the clean one",
		"deterministic: the report is byte-identical at any -workers and -shards setting — fault toggles replay identically on every shard replica, and only shard-invariant quantities are printed",
	)
	return r
}
