package bench

import (
	"fmt"
	"time"

	"fm/internal/core"
	"fm/internal/cost"
	"fm/internal/metrics"
	"fm/internal/myrinet"
	"fm/internal/sim"
	"fm/internal/workload"
)

// The scale experiment: the fabrics comparison at production sizes. It
// sweeps full-bisection 2-level Clos fabrics from 64 to 4096 nodes and
// drives each with all-to-all and bisection traffic at the raw network
// level, plus a complete-FM-stack all-to-all (hosts, SBus, LANai, LCP,
// flow control on every node). Before the engine went allocation-light
// (pooled packets, closure-free events, demand-cached routes) the
// 1024-node points were impractical to run; the ladder-queue scheduler
// and symmetric process handoff (DESIGN.md "Performance") then bought
// the headroom for 2048 and 4096 — the 4096-node FM point pushes
// ~16.8 million full-stack messages. The sharded engine (-shards,
// DESIGN.md "Parallel engine") splits each simulation across shard
// kernels, one leaf group block per shard. Trim a run with
// -scale-nodes, and use -timing to see where the wall-clock goes (with
// -shards > 1 it adds a per-shard breakdown of every leg).
//
// The experiment is in the extended registry, not `-experiment all`:
// its FM points simulate tens of millions of full-stack messages and
// dominate any all-experiments run.

// scaleSpec returns the full-bisection Clos at n nodes
// (workload.ClosSpec), renamed so panic messages identify the sweep
// point.
func scaleSpec(n int) workload.FabricSpec {
	spec := workload.ClosSpec(n)
	spec.Name = fmt.Sprintf("clos-%d", n)
	return spec
}

// scalePattern resolves the sweep's main traffic pattern. The catalog
// is deliberately small: all-to-all is the default (its labels and
// volume are byte-identical to builds predating the knob),
// and neighbor is the light structured pattern that makes very large
// points — 16k nodes and past — tractable, since its message count
// grows linearly in N instead of quadratically. The returned desc
// phrase slots into the report notes ("<desc> ... per node").
func scalePattern(name string) (pat workload.Pattern, desc string, err error) {
	switch name {
	case "all-to-all":
		return workload.AllToAll{Rounds: 1}, "one all-to-all round", nil
	case "neighbor":
		return workload.Neighbor{Rounds: 16, Wrap: true}, "16 wrapped neighbor rounds", nil
	}
	return nil, "", fmt.Errorf("unknown -scale-pattern %q (valid: all-to-all, neighbor)", name)
}

// ValidateScale checks the scale sweep's configuration before anything
// runs: the pattern name must be in the catalog, every node count must
// derive a Clos geometry the fabric layer can actually build
// (checkClos) — so a bad point at the end of -scale-nodes cannot cost
// the long points before it — and -shards must not exceed the leaf
// groups of the smallest point.
func ValidateScale(opt Options) error {
	if _, _, err := scalePattern(opt.ScalePattern); err != nil {
		return err
	}
	if len(opt.ScaleNodes) == 0 {
		return fmt.Errorf("-scale-nodes is empty: need at least one sweep point")
	}
	bound, minN := 0, 0
	for _, n := range opt.ScaleNodes {
		if n < 2 {
			return fmt.Errorf("-scale-nodes %d: a sweep point needs at least 2 nodes", n)
		}
		if err := checkClos("-scale-nodes", n); err != nil {
			return err
		}
		if _, groups := workload.Geometry(n); bound == 0 || groups < bound {
			bound, minN = groups, n
		}
	}
	return checkShards(opt, "scale", bound, fmt.Sprintf(
		"2-level Clos sweep shards one leaf group per shard, and the smallest point (clos-%d) has %d leaf groups", minN, bound))
}

// maxClosPorts bounds the switch ports, (spines + leaves) x ports, of
// the Clos a node count derives. A count with no square-ish factoring
// (a prime, or twice one) derives as many leaves as nodes, or half as
// many, as many spines, and a port per leaf on every switch, so its
// port total grows as N^2 — and the faults and soak validators build
// the fabric they check. 2^20 admits every power-of-two count up to
// 262,144 nodes (1,024 switches of 1,024 ports).
const maxClosPorts = 1 << 20

// checkClos rejects a node count whose full-bisection Clos
// (workload.ClosGeometry) the fabric layer cannot build
// (myrinet.ClosCheck) or whose switch-port total exceeds maxClosPorts.
// Every validator runs it on the node count it would build before
// anything builds a fabric, since myrinet.NewClos panics on such a
// geometry; flag names the option the count came from.
func checkClos(flag string, n int) error {
	spines, leaves, npl, ports := workload.ClosGeometry(n)
	err := myrinet.ClosCheck(spines, leaves, npl, ports)
	if err == nil && (spines+leaves)*ports > maxClosPorts {
		// ClosCheck passed, so ports and leaves are within the
		// packed-route limit and the product cannot overflow.
		err = fmt.Errorf("%d switches x %d ports = %d switch ports, over the %d limit",
			spines+leaves, ports, (spines+leaves)*ports, maxClosPorts)
	}
	if err != nil {
		return fmt.Errorf("%s %d: clos(%d spines, %d leaves, %d nodes/leaf, %d ports): %v",
			flag, n, spines, leaves, npl, ports, err)
	}
	return nil
}

// Scale regenerates the scaling sweep over opt.ScaleNodes (default
// 64..4096). Every measurement is an isolated simulation, so the sweep
// points fan out over the worker pool like any other experiment.
func Scale(opt Options) *Report {
	p := cost.Default()
	pat, desc, err := scalePattern(opt.ScalePattern)
	if err != nil {
		panic(fmt.Sprintf("bench: scale: %v", err))
	}
	pname, nodes := opt.ScalePattern, opt.ScaleNodes
	const size = 112 // 112B payload + 16B header = the paper's 128B frame
	r := &Report{ID: "scale", Title: fmt.Sprintf("Clos scaling, %d to %d nodes", nodes[0], nodes[len(nodes)-1])}

	type rawRes struct {
		bw, hops float64
		shards   []sim.ShardStats
	}
	type fmRes struct {
		bw      float64
		elapsed sim.Duration
		shards  []sim.ShardStats
	}
	a2a := make([]rawRes, len(nodes))
	bis := make([]rawRes, len(nodes))
	fm := make([]fmRes, len(nodes))
	var jobs []func()
	for i, n := range nodes {
		i, n := i, n
		jobs = append(jobs,
			func() {
				res := workload.DriveRawSharded(scaleSpec(n), p, pat, size, opt.Shards)
				a2a[i] = rawRes{bw: metrics.Bandwidth(size, res.Messages, res.Elapsed), hops: res.MeanHops, shards: res.Shards}
			},
			func() {
				res := workload.DriveRawSharded(scaleSpec(n), p, workload.Bisection{Packets: 32}, size, opt.Shards)
				bis[i] = rawRes{bw: metrics.Bandwidth(size, res.Messages, res.Elapsed), shards: res.Shards}
			},
			func() {
				res := workload.DriveFMSharded(scaleSpec(n), core.DefaultConfig(), p, pat, size, opt.Shards)
				fm[i] = fmRes{bw: metrics.Bandwidth(size, res.Messages, res.Elapsed), elapsed: res.Elapsed, shards: res.Shards}
			},
		)
	}
	runParallel(opt.Workers, jobs)

	ms := func(d sim.Duration) string {
		return fmt.Sprintf("%.2f", float64(d)/float64(sim.Millisecond))
	}
	for i, n := range nodes {
		g, groups := workload.Geometry(n)
		r.KVs = append(r.KVs,
			KV{fmt.Sprintf("N=%4d raw %s agg. BW (MB/s)", n, pname), fmt.Sprintf("%.0f", a2a[i].bw),
				fmt.Sprintf("%d leaves x %d nodes", groups, g)},
			KV{fmt.Sprintf("N=%4d raw %s mean hops", n, pname), fmt.Sprintf("%.2f", a2a[i].hops), "-"},
			KV{fmt.Sprintf("N=%4d raw bisection BW (MB/s)", n), fmt.Sprintf("%.0f", bis[i].bw), "full bisection"},
			KV{fmt.Sprintf("N=%4d FM %s completion (ms)", n, pname), ms(fm[i].elapsed), "-"},
			KV{fmt.Sprintf("N=%4d FM delivered payload BW (MB/s)", n), fmt.Sprintf("%.1f", fm[i].bw), "-"},
		)
	}

	linkMBps := float64(sim.Second/p.LinkByte) / metrics.MiB
	fmVolume := "N*(N-1) messages"
	if pname == "neighbor" {
		fmVolume = "32*N messages"
	}
	r.Notes = append(r.Notes,
		fmt.Sprintf("every fabric is a full-bisection 2-level Clos (spines = leaves); raw link rate %.0f MB/s per cable", linkMBps),
		fmt.Sprintf("raw points: %s and 32 bisection packets per node, no host stack", desc),
		fmt.Sprintf("FM points: %s (%s) through the complete FM 1.0 layer on every node", desc, fmVolume),
	)
	if opt.Shards > 1 {
		r.Notes = append(r.Notes, fmt.Sprintf(
			"sharded run: every simulation split across %d shard kernels (one leaf-group block per shard, lookahead = switch latency); deterministic, but contention may resolve in a different order than one kernel (DESIGN.md)", opt.Shards))
		if opt.ShardTiming {
			timing := func(n int, leg string, shards []sim.ShardStats) {
				line := fmt.Sprintf("shard timing N=%d %s:", n, leg)
				var posts, events uint64
				for s, st := range shards {
					line += fmt.Sprintf("  s%d %.2gMev/%dw/%s", s,
						float64(st.Events)/1e6, st.Windows, st.Busy.Round(time.Millisecond))
					posts += st.Posted
					events += st.Events
				}
				r.Notes = append(r.Notes, line+fmt.Sprintf("  cross-shard posts %d/%d events", posts, events))
			}
			for i, n := range nodes {
				timing(n, "raw "+pname, a2a[i].shards)
				timing(n, "raw bisection", bis[i].shards)
				timing(n, "FM "+pname, fm[i].shards)
			}
			r.Notes = append(r.Notes,
				"shard timing legend: per shard, events executed (millions) / barrier windows with work / wall-clock busy in the shard's kernel; then the leg's cross-shard posts over the events its shards ran")
		}
	}
	return r
}
