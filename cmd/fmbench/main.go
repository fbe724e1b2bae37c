// Command fmbench regenerates the paper's evaluation: every quantitative
// figure (3, 4, 7, 8, 9), Table 4, the headline numbers, the
// design-choice ablations, and the beyond-the-paper experiments — the
// fabric-scaling comparison (crossbar vs. line vs. Clos) and the
// MPI-on-FM cost-of-layering comparison.
//
// Usage:
//
//	fmbench [-experiment all|fig3|fig4|fig7|fig8|fig9|table4|headline|ablations|fabrics|mpi|patterns|scale|faults|soak]
//	        [-paper-exact] [-packets N] [-rounds N] [-workers N] [-shards N]
//	        [-fabric-nodes N] [-pattern-nodes N] [-scale-nodes LIST]
//	        [-scale-pattern all-to-all|neighbor]
//	        [-fault-seed N] [-fault-plan PLAN] [-fault-nodes N]
//	        [-soak-source poisson|fixed] [-soak-pattern NAME] [-soak-nodes N]
//	        [-soak-loads LIST] [-soak-horizon-us N] [-soak-window-us N]
//	        [-soak-seed N] [-soak-drain]
//	        [-csv DIR] [-list] [-timing]
//	        [-cpuprofile FILE] [-memprofile FILE]
//
// Output is aligned text on stdout; -csv additionally writes one CSV per
// curve (and per table) for plotting. -paper-exact uses the paper's
// measurement lengths (65,535 packets per bandwidth point) instead of
// the faster default. Independent measurements fan out over a worker
// pool (-workers, default one per CPU); results are identical at any
// worker count.
//
// -shards splits each individual simulation of the scale and faults
// experiments across N shard kernels (conservative parallel DES, one
// leaf-group block per shard; DESIGN.md "Parallel engine"). -shards 1,
// the default, is one shard — the single kernel — and its output is
// byte-identical to builds predating the sharded engine; any fixed
// -shards value is deterministic at every -workers count. Only those
// two experiments' 2-level Clos fabrics partition, and soak runs one
// kernel by design, so -shards > 1 is validated against every selected
// experiment before anything runs, and the rejection names what the
// experiment supports.
//
// The faults experiment (extended; run by id) injects component
// outages and loss/corruption bursts mid-traffic and reports what the
// FM reliability layer does about them. -fault-seed derives the whole
// plan deterministically (0 = inject nothing); -fault-plan gives an
// explicit plan instead, as "kind index startUs endUs" events joined
// by semicolons with kind one of link, switch, node, loss, corrupt
// (e.g. "switch 9 100 200; loss 35 74 147"); -fault-nodes sizes its
// Clos fabric (default 32). A bad plan is rejected, with the reason,
// before anything runs. The report is byte-identical at any -workers
// and -shards setting (DESIGN.md "Fault model").
//
// The soak experiment (extended; run by id) streams open-loop traffic
// through the full FM stack and reports a windowed time series per
// offered-load point: throughput, sojourn p50/p99/p999, in-flight
// backlog, and retransmits per fixed-width virtual-time window, with
// the saturation knee visible across the ladder. -soak-source picks
// the arrival process (seeded poisson or phase-staggered fixed rate),
// -soak-pattern the destination structure, -soak-loads the ladder in
// MB/s per node, -soak-horizon-us/-soak-window-us the observation
// geometry, and -soak-drain extends the reported timeline through
// quiescence instead of clipping at the horizon. An explicit
// -fault-plan is overlaid on every load point so recovery transients
// show up in the windows. Every -soak-* combination is validated
// before anything runs, and a -soak-* flag without the soak experiment
// selected is rejected outright. The timeline is computed on the
// canonical single-kernel engine, so soak output is byte-identical at
// any -workers setting and -shards > 1 is rejected.
//
// -timing appends a wall-clock line and a memory line (Go heap high
// water plus peak RSS where /proc exposes it) per experiment (off by
// default, so default outputs stay byte-identical run to run);
// -scale-nodes caps or extends the scale sweep (comma-separated node
// counts) and -scale-pattern switches its raw and FM legs between
// all-to-all (default, byte-identical to prior releases) and the
// linear-volume neighbor pattern that makes 16k+ points quick; both
// are validated against the Clos geometry checks before the first
// sweep point runs. -cpuprofile/-memprofile write pprof profiles of
// the run for hot-path work on the simulator itself.
//
// -list prints every registered experiment id with its one-line
// description and exits. `-experiment all` runs the paper set;
// long-running extended experiments (scale: Clos sweeps to 4096 nodes
// through the full FM stack, ~30 minutes at the default node list)
// run only when named explicitly. An unknown experiment id is
// rejected, with the valid ids listed, before anything runs.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	"fm/internal/bench"
)

// main defers to run so error exits still flush a -cpuprofile in
// progress (os.Exit would skip the deferred StopCPUProfile).
func main() {
	os.Exit(run())
}

// memLine summarizes the process footprint for the -timing trailer:
// the Go heap's high-water reservation (HeapSys is what the runtime
// has taken from the OS for heap spans — a stable high-water figure,
// unlike the GC-cyclic HeapAlloc) and the kernel's peak-RSS reading.
// Cumulative across experiments, like peak RSS inherently is; for a
// per-experiment ceiling, run that experiment alone. Never part of
// default output, so byte-identity is unaffected.
func memLine() string {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	line := fmt.Sprintf("%8.1f MB Go heap sys", float64(ms.HeapSys)/(1<<20))
	if kb, ok := peakRSSKB(); ok {
		line += fmt.Sprintf(", %.1f MB peak RSS", float64(kb)/1024)
	}
	return line
}

// peakRSSKB reads the process's high-water resident set from
// /proc/self/status (VmHWM). Absent on non-Linux hosts; the caller
// just omits the figure.
func peakRSSKB() (int64, bool) {
	raw, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, false
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		f := strings.Fields(line)
		if len(f) < 2 {
			return 0, false
		}
		kb, err := strconv.ParseInt(f[1], 10, 64)
		if err != nil {
			return 0, false
		}
		return kb, true
	}
	return 0, false
}

func run() int {
	exp := flag.String("experiment", "all", "comma-separated experiment ids (all, "+strings.Join(bench.IDs(), ", ")+")")
	paperExact := flag.Bool("paper-exact", false, "use the paper's measurement lengths (65,535 packets per point)")
	packets := flag.Int("packets", 0, "override packets per bandwidth point")
	rounds := flag.Int("rounds", 0, "override ping-pong rounds per latency point")
	workers := flag.Int("workers", 0, "override harness parallelism (default: one per CPU)")
	shards := flag.Int("shards", 1, "shard kernels per simulation (scale and faults experiments; 1 = single kernel)")
	fabricNodes := flag.Int("fabric-nodes", 0, "override node count for the fabrics experiment (default 64)")
	patternNodes := flag.Int("pattern-nodes", 0, "override node count for the patterns experiment (default 32)")
	scaleNodes := flag.String("scale-nodes", "", "override the scale sweep's node counts (comma-separated, e.g. 64,256,1024)")
	scalePattern := flag.String("scale-pattern", "", "traffic pattern for the scale sweep's raw and FM legs (all-to-all or neighbor; default all-to-all)")
	faultSeed := flag.Uint64("fault-seed", 1995, "the faults experiment's plan seed (0 = empty plan, inject nothing)")
	faultPlan := flag.String("fault-plan", "", "explicit fault plan for the faults experiment (\"kind index startUs endUs; ...\"), overrides -fault-seed; the soak experiment overlays it on every load point")
	faultNodes := flag.Int("fault-nodes", 0, "override node count for the faults experiment (default 32)")
	soakSource := flag.String("soak-source", "poisson", "the soak experiment's arrival process (poisson or fixed)")
	soakPattern := flag.String("soak-pattern", "uniform-random", "base traffic pattern the soak source cycles through")
	soakNodes := flag.Int("soak-nodes", 0, "override node count for the soak experiment's Clos (default 64)")
	soakLoads := flag.String("soak-loads", "", "override the soak offered-load ladder, MB/s per node (comma-separated, e.g. 8,16,24)")
	soakHorizon := flag.Int("soak-horizon-us", 0, "override the soak arrival horizon in virtual microseconds (default 1500)")
	soakWindow := flag.Int("soak-window-us", 0, "override the soak series window width in virtual microseconds (default 150)")
	soakSeed := flag.Uint64("soak-seed", 1995, "seed for the soak experiment's Poisson arrival streams")
	soakDrain := flag.Bool("soak-drain", false, "report the soak timeline through quiescence instead of clipping at the horizon")
	csvDir := flag.String("csv", "", "also write CSV series into this directory")
	list := flag.Bool("list", false, "list every experiment id with its description and exit")
	timing := flag.Bool("timing", false, "print wall-clock time per experiment (off by default: outputs stay byte-identical)")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile at exit to this file")
	flag.Parse()

	if *list {
		fmt.Printf("%-10s %s\n", "all", "the paper set: every experiment below except the extended ones")
		for _, e := range bench.All() {
			fmt.Printf("%-10s %s\n%-10s   %s\n", e.ID, e.Title, "", e.Desc)
		}
		for _, e := range bench.Extended() {
			fmt.Printf("%-10s %s (extended: not part of `all`)\n%-10s   %s\n", e.ID, e.Title, "", e.Desc)
		}
		return 0
	}

	opt := bench.DefaultOptions()
	if *paperExact {
		opt = bench.PaperExact()
	}
	if *packets > 0 {
		opt.Packets = *packets
	}
	if *rounds > 0 {
		opt.Rounds = *rounds
	}
	if *workers > 0 {
		opt.Workers = *workers
	}
	if *fabricNodes > 0 {
		opt.FabricNodes = *fabricNodes
	}
	if *patternNodes > 0 {
		opt.PatternNodes = *patternNodes
	}
	if *scaleNodes != "" {
		var nodes []int
		for _, f := range strings.Split(*scaleNodes, ",") {
			n, err := strconv.Atoi(strings.TrimSpace(f))
			if err != nil || n < 2 {
				fmt.Fprintf(os.Stderr, "fmbench: bad -scale-nodes entry %q\n", f)
				return 2
			}
			nodes = append(nodes, n)
		}
		opt.ScaleNodes = nodes
	}
	if *scalePattern != "" {
		opt.ScalePattern = *scalePattern
	}
	opt.FaultSeed = *faultSeed
	opt.FaultPlan = *faultPlan
	if *faultNodes > 0 {
		opt.FaultNodes = *faultNodes
	}
	opt.SoakSource = *soakSource
	opt.SoakPattern = *soakPattern
	opt.SoakSeed = *soakSeed
	opt.SoakDrain = *soakDrain
	if *soakNodes > 0 {
		opt.SoakNodes = *soakNodes
	}
	if *soakHorizon > 0 {
		opt.SoakHorizonUs = *soakHorizon
	}
	if *soakWindow > 0 {
		opt.SoakWindowUs = *soakWindow
	}
	if *soakLoads != "" {
		var loads []float64
		for _, f := range strings.Split(*soakLoads, ",") {
			l, err := strconv.ParseFloat(strings.TrimSpace(f), 64)
			if err != nil || l <= 0 {
				fmt.Fprintf(os.Stderr, "fmbench: bad -soak-loads entry %q (want positive MB/s per node)\n", f)
				return 2
			}
			loads = append(loads, l)
		}
		opt.SoakLoads = loads
	}

	// Validate every requested id before running anything: a typo in a
	// list must not cost a partial (and possibly long) run. "all" may
	// appear anywhere in the list and expands to the paper set (so
	// `-experiment all,scale` appends the extended sweep); repeated ids
	// run once.
	var run []bench.Experiment
	seen := map[string]bool{}
	add := func(e bench.Experiment) {
		if !seen[e.ID] {
			seen[e.ID] = true
			run = append(run, e)
		}
	}
	for _, id := range strings.Split(*exp, ",") {
		id = strings.TrimSpace(id)
		if id == "all" {
			for _, e := range bench.All() {
				add(e)
			}
			continue
		}
		e, ok := bench.ByID(id)
		if !ok {
			fmt.Fprintf(os.Stderr, "fmbench: unknown experiment %q\nvalid ids: all, %s\n",
				id, strings.Join(bench.IDs(), ", "))
			return 2
		}
		add(e)
	}

	// A -soak-* flag given explicitly while the soak experiment is not
	// selected is a mistake, not a no-op: reject it before anything runs.
	soakFlagged := ""
	flag.Visit(func(f *flag.Flag) {
		if soakFlagged == "" && strings.HasPrefix(f.Name, "soak-") {
			soakFlagged = f.Name
		}
	})
	if soakFlagged != "" && !seen["soak"] {
		fmt.Fprintf(os.Stderr, "fmbench: -%s is set but the soak experiment is not selected (add soak to -experiment)\n", soakFlagged)
		return 2
	}
	// Validate the soak configuration (source/pattern names, load
	// ladder, horizon/window geometry, overlaid fault plan) before
	// anything runs, like every other flag.
	if seen["soak"] {
		if err := bench.ValidateSoak(opt); err != nil {
			fmt.Fprintf(os.Stderr, "fmbench: %v\n", err)
			return 2
		}
	}
	// Validate the scale sweep (pattern name, every -scale-nodes entry's
	// derived Clos geometry) before anything runs: a bad point at the
	// end of the list must not cost the hours-long points before it.
	if seen["scale"] {
		if err := bench.ValidateScale(opt); err != nil {
			fmt.Fprintf(os.Stderr, "fmbench: %v\n", err)
			return 2
		}
	}
	// Validate the fault plan (text shape, component indices, window
	// sanity against the chosen fabric) the same way. When only the soak
	// experiment consumes the plan, ValidateSoak above has already
	// compiled it against the soak fabric and horizon — skipping the
	// faults-experiment check there keeps plans with windows past the
	// faults horizon usable for long soaks.
	if seen["faults"] || !seen["soak"] {
		if err := bench.ValidateFaults(opt); err != nil {
			fmt.Fprintf(os.Stderr, "fmbench: %v\n", err)
			return 2
		}
	}

	// Validate -shards the same way: against every selected experiment,
	// before anything runs. The bound comes from the topology
	// partitioner (one shard per leaf group of a two-level Clos), so the
	// message can say exactly what the chosen fabrics support.
	if *shards < 1 {
		fmt.Fprintf(os.Stderr, "fmbench: -shards %d: shard count must be at least 1\n", *shards)
		return 2
	}
	if *shards > 1 {
		for _, e := range run {
			if limit, detail := bench.ShardSupport(e.ID, opt); *shards > limit {
				fmt.Fprintf(os.Stderr, "fmbench: -shards %d: experiment %q supports -shards 1..%d: %s\n",
					*shards, e.ID, limit, detail)
				return 2
			}
		}
	}
	opt.Shards = *shards
	opt.ShardTiming = *timing

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "fmbench: %v\n", err)
			return 1
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "fmbench: %v\n", err)
			return 1
		}
		defer pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		// Deferred so an error exit after a long run still captures the
		// heap profile, matching the CPU profile's flush-on-exit.
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fmt.Fprintf(os.Stderr, "fmbench: %v\n", err)
				return
			}
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "fmbench: %v\n", err)
			}
			_ = f.Close()
		}()
	}

	for _, e := range run {
		start := time.Now()
		report := e.Run(opt)
		elapsed := time.Since(start)
		report.WriteText(os.Stdout)
		if *timing {
			fmt.Printf("timing: %-10s %8.2fs wall\n", e.ID, elapsed.Seconds())
			fmt.Printf("memory: %-10s %s\n\n", e.ID, memLine())
		}
		if *csvDir != "" {
			if err := report.WriteCSV(*csvDir); err != nil {
				fmt.Fprintf(os.Stderr, "fmbench: writing CSV: %v\n", err)
				return 1
			}
		}
	}

	return 0
}
