package bench

import (
	"fmt"

	"fm/internal/core"
	"fm/internal/cost"
	"fm/internal/metrics"
	"fm/internal/myrinet"
	"fm/internal/sim"
	"fm/internal/workload"
)

// The fabric-scaling experiment: the paper measures everything on one
// 8-port crossbar, but production Myrinet installations were multistage
// Clos networks. This experiment drives dense traffic patterns over
// N-node crossbar, line, and 2-level Clos fabrics at the raw network
// level (no host stack, so the fabric itself is the bottleneck), then
// re-runs the all-to-all through the full FM layer on the Clos.
//
// The traffic itself — all-to-all, bisection — and the drivers that
// push it through the fabric and the FM stack live in
// internal/workload; this file only selects patterns and formats the
// paper-style comparison.

// fabricNodes is the node count the fabrics experiment builds for
// opt.FabricNodes: at least 4, and even, since the bisection pattern
// pairs ranks across the midline.
func fabricNodes(opt Options) int {
	return workload.AdjustNodes(workload.Bisection{}, max(opt.FabricNodes, 4))
}

// validateFabrics is the fabrics experiment's Check (checkSpecs).
func validateFabrics(opt Options) error {
	return checkSpecs(opt, "fabrics", "-fabric-nodes", fabricNodes(opt))
}

// checkSpecs is the check of an experiment that compares the three
// standard topologies (workload.Specs) at n nodes, the count it builds
// for flag: it rejects an n at which the crossbar or the Clos cannot be
// built, and -shards > 1. The line needs no check of its own: it has
// one switch per Clos leaf, with that leaf's node ports plus two trunks.
func checkSpecs(opt Options, id, flag string, n int) error {
	if err := myrinet.CrossbarCheck(n, n); err != nil {
		return fmt.Errorf("%s %d: crossbar: %v", flag, n, err)
	}
	if err := checkClos(flag, n); err != nil {
		return err
	}
	return checkShards(opt, id, 1,
		"compares crossbar, line and Clos fabrics; a crossbar is a single leaf group and a line links leaves directly, so neither partitions")
}

// framePayload is the payload of every multi-node experiment's
// messages: 112 bytes plus the 16-byte FM header fill the paper's
// 128-byte frame.
const framePayload = 112

// Fabrics regenerates the fabric-scaling comparison at opt.FabricNodes
// nodes (default 64): aggregate all-to-all bandwidth and bisection
// bandwidth for crossbar vs. line vs. Clos, plus the FM-layer all-to-all
// on the Clos.
func Fabrics(opt Options) *Report {
	p := cost.Default()
	n := fabricNodes(opt)
	r := &Report{ID: "fabrics", Title: fmt.Sprintf("Fabric scaling at %d nodes", n)}

	specs := workload.Specs(n)
	type res struct {
		a2aBW, bisBW, a2aHops float64
	}
	results := mapN(opt.Workers, len(specs), func(i int) res {
		a2a := workload.DriveRawSharded(specs[i], p, workload.AllToAll{Rounds: 2}, framePayload, 1)
		bis := workload.DriveRawSharded(specs[i], p, workload.Bisection{Packets: 32}, framePayload, 1)
		return res{
			a2aBW:   metrics.Bandwidth(framePayload, a2a.Messages, a2a.Elapsed),
			bisBW:   metrics.Bandwidth(framePayload, bis.Messages, bis.Elapsed),
			a2aHops: a2a.MeanHops,
		}
	})

	linkMBps := float64(sim.Second/p.LinkByte) / metrics.MiB
	for i, s := range specs {
		expect := "full bisection"
		switch i {
		case 1:
			expect = "trunk-bottlenecked"
		case 2:
			expect = "near-crossbar"
		}
		r.KVs = append(r.KVs,
			KV{s.Name + ": all-to-all agg. BW (MB/s)", fmt.Sprintf("%.0f", results[i].a2aBW), expect},
			KV{s.Name + ": bisection BW (MB/s)", fmt.Sprintf("%.0f", results[i].bisBW), expect},
			KV{s.Name + ": mean hops", fmt.Sprintf("%.2f", results[i].a2aHops), "-"},
		)
	}

	fm := workload.DriveFM(workload.ClosSpec(n), core.DefaultConfig(), p, workload.AllToAll{Rounds: 1}, framePayload)
	r.KVs = append(r.KVs,
		KV{fmt.Sprintf("FM on Clos: all-to-all completion, N=%d (ms)", n),
			fmt.Sprintf("%.2f", float64(fm.Elapsed)/float64(sim.Millisecond)), "-"},
		KV{"FM on Clos: delivered payload BW (MB/s)",
			fmt.Sprintf("%.1f", metrics.Bandwidth(framePayload, fm.Messages, fm.Elapsed)), "-"},
	)

	g, groups := workload.Geometry(n)
	r.Notes = append(r.Notes,
		fmt.Sprintf("geometry: crossbar = one %d-port switch; line = %d switches x %d nodes; clos = %d spines over %d leaves x %d nodes (full bisection by construction)",
			n, groups, g, groups, groups, g),
		fmt.Sprintf("raw link rate is %.0f MB/s per cable (%.1f ns/byte); the line's bisection is one trunk pair", linkMBps, p.LinkByte.Nanoseconds()),
		"raw-fabric numbers exclude the host stack: they measure what the wires and switches can carry",
	)
	return r
}
