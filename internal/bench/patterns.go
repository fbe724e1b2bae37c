package bench

import (
	"fmt"
	"strings"

	"fm/internal/core"
	"fm/internal/cost"
	"fm/internal/sim"
	"fm/internal/workload"
)

// The patterns experiment: the workload catalog swept across fabrics
// and stack levels. The paper's evaluation fixes one pattern per study;
// this experiment is the cross product — every traffic pattern in
// internal/workload driven over crossbar, line, and Clos fabrics at the
// raw network level, through the complete FM 1.0 stack, and through
// MPI-on-FM. Each cell is an isolated deterministic simulation, so the
// sweep fans out over the worker pool with byte-identical output at any
// -workers value.

// patternPackets is the per-rank message count for the bounded patterns
// (the all-to-all and broadcast counts derive from the rank count).
const patternPackets = 16

// patternSeed pins the uniform-random pattern's PRNG: the experiment is
// reproducible by construction, never by accident.
const patternSeed = 1995

// patternCatalog returns the pattern set the experiment sweeps.
func patternCatalog() []workload.Pattern {
	return []workload.Pattern{
		workload.AllToAll{Rounds: 1},
		workload.Bisection{Packets: patternPackets},
		workload.UniformRandom{Seed: patternSeed, Packets: patternPackets},
		workload.Tornado{Packets: patternPackets},
		workload.Incast{Target: 0, Packets: patternPackets},
		workload.Neighbor{Rounds: patternPackets, Wrap: true},
		workload.Broadcast{Root: 0, Rounds: patternPackets},
	}
}

// catalogPattern resolves a pattern flag's value against
// patternCatalog, among the entries keep admits; the error names the
// flag and lists the names it admits.
func catalogPattern(flag, name string, keep func(workload.Pattern) bool) (workload.Pattern, error) {
	var valid []string
	for _, pat := range patternCatalog() {
		if !keep(pat) {
			continue
		}
		if pat.Name() == name {
			return pat, nil
		}
		valid = append(valid, pat.Name())
	}
	return nil, fmt.Errorf("unknown %s %q (valid: %s)", flag, name, strings.Join(valid, ", "))
}

// patternNodes is the node count the patterns experiment builds for
// opt.PatternNodes: at least 4, with every pattern's node adjustment
// applied, since every pattern runs at the same rank count (bisection
// rounds odd counts up to even).
func patternNodes(opt Options) int {
	n := max(opt.PatternNodes, 4)
	for _, pat := range patternCatalog() {
		n = workload.AdjustNodes(pat, n)
	}
	return n
}

// validatePatterns is the patterns experiment's Check (checkSpecs).
func validatePatterns(opt Options) error {
	return checkSpecs(opt, "patterns", "-pattern-nodes", patternNodes(opt))
}

// Patterns regenerates the workload sweep at opt.PatternNodes nodes
// (default 32): for every pattern x fabric cell, raw-fabric aggregate
// bandwidth, p99 delivery latency, and mean hops, plus completion time
// and delivered bandwidth through the FM stack and through MPI-on-FM.
func Patterns(opt Options) *Report {
	p := cost.Default()
	n := patternNodes(opt)
	pats := patternCatalog()
	specs := workload.Specs(n)
	r := &Report{ID: "patterns", Title: fmt.Sprintf("Workload patterns at %d nodes", n)}

	type cell struct {
		raw, fm, mpi workload.Result
	}
	// One job per (cell, stack level): the MPI legs of the serialized
	// patterns (incast, broadcast) dominate, so splitting legs keeps the
	// pool balanced. Jobs write disjoint fields of disjoint cells.
	cells := make([]cell, len(pats)*len(specs))
	var jobs []func()
	for i := range cells {
		i := i
		pat, spec := pats[i/len(specs)], specs[i%len(specs)]
		jobs = append(jobs,
			func() { cells[i].raw = workload.DriveRawSharded(spec, p, pat, framePayload, 1) },
			func() { cells[i].fm = workload.DriveFM(spec, core.DefaultConfig(), p, pat, framePayload) },
			func() { cells[i].mpi = workload.DriveMPI(spec, core.DefaultConfig(), p, pat, framePayload) },
		)
	}
	runParallel(opt.Workers, jobs)

	ms := func(d sim.Duration) string {
		return fmt.Sprintf("%.2f", float64(d)/float64(sim.Millisecond))
	}
	t := Table{
		Name: "pattern x fabric x stack level",
		Header: []string{"pattern", "fabric", "msgs",
			"raw BW (MB/s)", "raw p99 (us)", "hops",
			"FM (ms)", "FM BW (MB/s)", "MPI (ms)", "MPI BW (MB/s)"},
	}
	for _, c := range cells {
		t.Rows = append(t.Rows, []string{
			c.raw.Pattern, c.raw.Fabric,
			fmt.Sprintf("%d", c.raw.Messages),
			fmt.Sprintf("%.0f", c.raw.MBps()),
			fmt.Sprintf("%.1f", c.raw.Latency.Percentile(0.99).Microseconds()),
			fmt.Sprintf("%.2f", c.raw.MeanHops),
			ms(c.fm.Elapsed),
			fmt.Sprintf("%.1f", c.fm.MBps()),
			ms(c.mpi.Elapsed),
			fmt.Sprintf("%.1f", c.mpi.MBps()),
		})
	}
	r.Tables = append(r.Tables, t)

	g, groups := workload.Geometry(n)
	r.Notes = append(r.Notes,
		fmt.Sprintf("geometry: crossbar = one %d-port switch; line = %d switches x %d nodes; clos = %d spines over %d leaves x %d nodes",
			n, groups, g, groups, groups, g),
		fmt.Sprintf("%dB payloads; bounded patterns send %d packets per rank; uniform-random is seeded (splitmix64, seed %d) and byte-reproducible",
			framePayload, patternPackets, patternSeed),
		"raw = wires and switches only (p99 is injection to tail delivery); FM = complete FM 1.0 stack; MPI = tagged messages on FM (the 128B default frame splits each payload into two fragments, so every MPI message pays matching and reassembly)",
		"incast converges on rank 0 (the Discussion's hotspot); broadcast is rank 0 storming all others; tornado shifts by ceil(n/2)-1 ranks",
	)
	return r
}
