// Command fmbench regenerates the paper's evaluation: every quantitative
// figure (3, 4, 7, 8, 9), Table 4, the headline numbers, the
// design-choice ablations, and the beyond-the-paper experiments — the
// fabric-scaling comparison (crossbar vs. line vs. Clos) and the
// MPI-on-FM cost-of-layering comparison. The extended experiments
// (scale, faults, soak) run only when named.
//
// Usage:
//
//	fmbench [-experiment ids] [flags]
//
// Output is aligned text on stdout, byte-identical at any -workers
// count; -csv additionally writes one CSV per curve, table and series.
// `fmbench -help` lists every flag and the experiments that read it,
// `fmbench -list` every experiment with its flags, and EXPERIMENTS.md
// describes each experiment. A flag that no selected experiment reads,
// and a value a selected experiment's check rejects (a bad name, a
// fabric it cannot build, a -shards value it cannot partition), is
// rejected with the reason before anything runs, as is a count below 1.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"slices"
	"strconv"
	"strings"
	"time"

	"fm/internal/bench"
	"fm/internal/metrics"
)

// main defers to run so error exits still flush a -cpuprofile in
// progress (os.Exit would skip the deferred StopCPUProfile).
func main() {
	os.Exit(run(os.Args[1:]))
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

// config is one parsed command line: the options every selected
// experiment runs with, and the settings of the run loop itself.
type config struct {
	opt        bench.Options
	experiment string
	paperExact bool
	exps       []bench.Experiment // selected, in run order
	list       bool
	timing     bool
	csvDir     string
	cpuprofile string
	memprofile string
}

// count is a flag.Value binding a positive int straight into an
// Options field.
type count struct{ p *int }

// String also serves the zero count the flag package builds to tell a
// default apart in -help.
func (c count) String() string {
	if c.p == nil {
		return "0"
	}
	return strconv.Itoa(*c.p)
}

func (c count) Set(s string) error {
	n, err := strconv.ParseInt(s, 0, strconv.IntSize)
	if err != nil || n < 1 {
		return errors.New("want a positive integer")
	}
	*c.p = int(n)
	return nil
}

// parseList parses a comma-separated list, one value per entry.
func parseList[T any](s string, parse func(string) (T, error)) ([]T, error) {
	var out []T
	for _, f := range strings.Split(s, ",") {
		v, err := parse(strings.TrimSpace(f))
		if err != nil {
			return nil, fmt.Errorf("bad entry %q", f)
		}
		out = append(out, v)
	}
	return out, nil
}

// joined renders a default list the way its flag takes it.
func joined(list any) string {
	return strings.Join(strings.Fields(strings.Trim(fmt.Sprint(list), "[]")), ",")
}

// readers maps every experiment-specific flag to the ids of the
// experiments that read it.
func readers() map[string][]string {
	m := map[string][]string{}
	for _, e := range bench.Registry() {
		for _, name := range e.Flags {
			m[name] = append(m[name], e.ID)
		}
	}
	return m
}

// newFlagSet defines every fmbench flag, each bound straight into c,
// and notes on each experiment-specific flag which experiments read it
// (r, from readers).
func newFlagSet(c *config, r map[string][]string) *flag.FlagSet {
	o := &c.opt
	fs := flag.NewFlagSet("fmbench", flag.ContinueOnError)
	fs.StringVar(&c.experiment, "experiment", "all", "comma-separated experiment `ids` (all, "+strings.Join(bench.IDs(), ", ")+")")
	fs.BoolVar(&c.paperExact, "paper-exact", false, "stream the paper's 65,535 packets per bandwidth point")
	fs.Var(count{&o.Packets}, "packets", "stream `N` packets per bandwidth point")
	fs.Var(count{&o.Rounds}, "rounds", "`N` ping-pong rounds per latency point")
	fs.Var(count{&o.Workers}, "workers", "run `N` measurement simulations at once (output is identical at any value)")
	fs.Var(count{&o.Shards}, "shards", "split each simulation across `N` shard kernels (1 = the single kernel; a raw all-to-all still runs slower on two than on one)")
	fs.Var(count{&o.FabricNodes}, "fabric-nodes", "`N` nodes for the fabric comparison")
	fs.Var(count{&o.PatternNodes}, "pattern-nodes", "`N` nodes for the pattern sweep")
	fs.Func("scale-nodes", "the scale sweep's node counts, a comma-separated `list` (default "+joined(o.ScaleNodes)+")", func(s string) (err error) {
		o.ScaleNodes, err = parseList(s, strconv.Atoi)
		return err
	})
	fs.StringVar(&o.ScalePattern, "scale-pattern", o.ScalePattern, "traffic `pattern` of the scale sweep's raw and FM legs (all-to-all or neighbor)")
	fs.Uint64Var(&o.FaultSeed, "fault-seed", o.FaultSeed, "seed of the faults experiment's random plan (0 = empty plan, inject nothing)")
	fs.StringVar(&o.FaultPlan, "fault-plan", o.FaultPlan, "explicit fault `plan` (\"kind index startUs endUs; ...\"): the faults experiment runs it instead of -fault-seed's, and soak overlays it on every load point")
	fs.Var(count{&o.FaultNodes}, "fault-nodes", "`N` nodes for the faults experiment's Clos (at least 8, rounded up to even)")
	fs.StringVar(&o.SoakSource, "soak-source", o.SoakSource, "the soak arrival `process` (poisson or fixed)")
	fs.StringVar(&o.SoakPattern, "soak-pattern", o.SoakPattern, "base traffic `pattern` the soak source cycles through")
	fs.Var(count{&o.SoakNodes}, "soak-nodes", "`N` nodes for the soak experiment's Clos (at least 8)")
	fs.Func("soak-loads", "the soak offered-load ladder in MB/s per node, a comma-separated `list` (default "+joined(o.SoakLoads)+")", func(s string) (err error) {
		o.SoakLoads, err = parseList(s, func(f string) (float64, error) { return strconv.ParseFloat(f, 64) })
		return err
	})
	fs.Var(count{&o.SoakHorizonUs}, "soak-horizon-us", "the soak arrival horizon in virtual `microseconds`")
	fs.Var(count{&o.SoakWindowUs}, "soak-window-us", "the soak series window width in virtual `microseconds`")
	fs.Uint64Var(&o.SoakSeed, "soak-seed", o.SoakSeed, "seed for the soak experiment's Poisson arrival streams")
	fs.BoolVar(&o.SoakDrain, "soak-drain", o.SoakDrain, "report the soak timeline through quiescence instead of clipping at the horizon")
	fs.StringVar(&c.csvDir, "csv", "", "also write CSV series into this `dir`")
	fs.BoolVar(&c.list, "list", false, "list every experiment id with its description and flags, and exit")
	fs.BoolVar(&c.timing, "timing", false, "print wall-clock time and memory per experiment, and per-shard timing on sharded scale runs (off by default: outputs stay byte-identical)")
	fs.StringVar(&c.cpuprofile, "cpuprofile", "", "write a CPU profile of the run to this `file`")
	fs.StringVar(&c.memprofile, "memprofile", "", "write a heap profile at exit to this `file`")

	fs.VisitAll(func(f *flag.Flag) {
		if ids := r[f.Name]; ids != nil {
			f.Usage += " (read by: " + strings.Join(ids, ", ") + ")"
		}
	})
	return fs
}

// parse reads the command line and validates it against every selected
// experiment, so that nothing runs unless all of it can. It prints
// usage for -h and returns flag.ErrHelp.
func parse(args []string) (config, error) {
	c := config{opt: bench.DefaultOptions()}
	r := readers()
	fs := newFlagSet(&c, r)
	fs.SetOutput(io.Discard)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			fs.SetOutput(os.Stderr)
			fmt.Fprintln(os.Stderr, "Usage of fmbench:")
			fs.PrintDefaults()
		}
		return c, err
	}
	if fs.NArg() > 0 {
		return c, fmt.Errorf("unexpected argument %q: fmbench takes only flags", fs.Arg(0))
	}
	if c.list {
		return c, nil
	}

	// "all" may appear anywhere in the list and expands to the paper set
	// (so `-experiment all,scale` appends the extended sweep); repeated
	// ids run once.
	seen := map[string]bool{}
	for _, id := range strings.Split(c.experiment, ",") {
		exps := bench.All()
		if id = strings.TrimSpace(id); id != "all" {
			e, ok := bench.ByID(id)
			if !ok {
				return c, fmt.Errorf("unknown experiment %q\nvalid ids: all, %s", id, strings.Join(bench.IDs(), ", "))
			}
			exps = []bench.Experiment{e}
		}
		for _, e := range exps {
			if !seen[e.ID] {
				seen[e.ID] = true
				c.exps = append(c.exps, e)
			}
		}
	}

	read := map[string]bool{}
	for _, e := range c.exps {
		for _, name := range e.Flags {
			read[name] = true
		}
	}
	var set []string // the flags given, in lexical order
	fs.Visit(func(f *flag.Flag) { set = append(set, f.Name) })
	for _, name := range set {
		if r[name] != nil && !read[name] {
			return c, fmt.Errorf("-%s is set but no selected experiment reads it (read by: %s)",
				name, strings.Join(r[name], ", "))
		}
	}
	if c.paperExact {
		if slices.Contains(set, "packets") {
			return c, errors.New("-paper-exact and -packets both set the packets per bandwidth point: give one")
		}
		c.opt.Packets = metrics.PaperStreamPackets
	}

	for _, e := range c.exps {
		if err := e.Validate(c.opt); err != nil {
			return c, err
		}
	}
	c.opt.ShardTiming = c.timing
	return c, nil
}

// printList writes the experiment catalog, flags included.
func printList(w io.Writer) {
	fmt.Fprintf(w, "%-10s %s\n", "all", "the paper set: every experiment below except the extended ones")
	entry := func(e bench.Experiment, suffix string) {
		fmt.Fprintf(w, "%-10s %s%s\n%-10s   %s\n%-10s   flags: -%s\n",
			e.ID, e.Title, suffix, "", e.Desc, "", strings.Join(e.Flags, " -"))
	}
	for _, e := range bench.All() {
		entry(e, "")
	}
	for _, e := range bench.Extended() {
		entry(e, " (extended: not part of `all`)")
	}
}

func run(args []string) int {
	c, err := parse(args)
	if errors.Is(err, flag.ErrHelp) {
		return 0
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "fmbench: %v\n", err)
		return 2
	}
	if c.list {
		printList(os.Stdout)
		return 0
	}

	if c.cpuprofile != "" {
		f, err := os.Create(c.cpuprofile)
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
	if c.memprofile != "" {
		// Deferred so an error exit after a long run still captures the
		// heap profile, matching the CPU profile's flush-on-exit.
		defer func() {
			f, err := os.Create(c.memprofile)
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

	for _, e := range c.exps {
		start := time.Now()
		report := e.Run(c.opt)
		elapsed := time.Since(start)
		report.WriteText(os.Stdout)
		if c.timing {
			fmt.Printf("timing: %-10s %8.2fs wall\n", e.ID, elapsed.Seconds())
			fmt.Printf("memory: %-10s %s\n\n", e.ID, memLine())
		}
		if c.csvDir != "" {
			if err := report.WriteCSV(c.csvDir); err != nil {
				fmt.Fprintf(os.Stderr, "fmbench: writing CSV: %v\n", err)
				return 1
			}
		}
	}
	return 0
}
