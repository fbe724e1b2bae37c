// Command perfbench is the repository's benchmark of the FM simulator.
//
// It runs one workload per process through the simulator's public entry
// points and prints every metric by name and unit, then, as its last
// line, one JSON object: {"correct", "attempted", "failed", "metrics"}.
// With -trace 0 it measures the end-to-end metrics for -seconds; with
// -trace 1 it makes one untraced reference call and one traced call
// (CPU profile on, every layer's counters read) and reports the
// per-layer metrics. README.md in this directory explains the
// workloads and metrics.
//
//	python3 perfbench/run.py --workload clos-a2a-fm --seed 1995 --seconds 30 --trace 0
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"time"
)

// setupBudget bounds the separate set-up sampling of workloads whose
// entry point hides its set-up.
const (
	setupBudget     = 500 * time.Millisecond
	setupMaxSamples = 25
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run (see -manifest)")
	seed := fs.Uint64("seed", 1995, "workload seed; soak-open's Poisson and base seeds default to it")
	poisson := fs.Int64("poisson-seed", -1, "soak-open Poisson arrival seed (-1: -seed)")
	base := fs.Int64("base-seed", -1, "soak-open uniform-random destination seed (-1: -seed)")
	seconds := fs.Int("seconds", runSeconds, "measurement time of one run")
	trace := fs.Int("trace", 0, "1: traced run reporting per-layer metrics")
	manifest := fs.Bool("manifest", false, "print the benchmark manifest (BENCHMARK.json) and exit")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *manifest {
		return writeManifest(stdout)
	}
	if *seconds < 1 {
		return fmt.Errorf("-seconds %d: want at least 1", *seconds)
	}
	if *trace != 0 && *trace != 1 {
		return fmt.Errorf("-trace %d: want 0 or 1", *trace)
	}
	var w *workloadDef
	var names []string
	for _, d := range workloads() {
		d := d
		names = append(names, d.name)
		if d.name == *name {
			w = &d
		}
	}
	if w == nil {
		return fmt.Errorf("unknown -workload %q (valid: %s)", *name, strings.Join(names, ", "))
	}
	in := seeds{poisson: *seed, base: *seed}
	if *poisson >= 0 {
		in.poisson = uint64(*poisson)
	}
	if *base >= 0 {
		in.base = uint64(*base)
	}

	runtime.GOMAXPROCS(w.procs)
	fmt.Fprintf(stdout, "workload %s  seed %d (poisson %d, base %d)  GOMAXPROCS %d  %s\n",
		w.name, *seed, in.poisson, in.base, w.procs, runtime.Version())
	var res result
	if *trace == 1 {
		res = traced(w, in, stdout)
	} else {
		res = measure(w, in, time.Duration(*seconds)*time.Second, stdout)
	}
	printMetrics(stdout, res.Metrics)
	out, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Fprintln(stdout, string(out))
	return nil
}

// safeCall runs one unit, turning a driver panic (undelivered,
// duplicate or stranded frame) into an error so the unit's messages
// count as failed instead of aborting the benchmark.
func safeCall(f func() (callResult, error)) (cr callResult, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("panic: %v", r)
		}
	}()
	return f()
}

// tally accumulates attempted and failed messages and the run's
// correctness over its units.
type tally struct {
	correct           bool
	attempted, failed int
	fp                string
}

// add books one unit: a unit that failed, or whose fingerprint differs
// from the run's first, counts all its messages as failed.
func (t *tally) add(w *workloadDef, in seeds, cr callResult, err error, stdout io.Writer) bool {
	if err == nil && t.fp != "" && cr.fp != t.fp {
		err = fmt.Errorf("fingerprint %s differs from the run's first %s", cr.fp, t.fp)
	}
	if err != nil {
		n := w.attempts(in)
		t.attempted += n
		t.failed += n
		t.correct = false
		fmt.Fprintf(stdout, "FAILED unit: %v\n", err)
		return false
	}
	if t.fp == "" {
		t.fp = cr.fp
	}
	t.attempted += cr.attempted
	t.failed += cr.attempted - cr.delivered
	if cr.delivered != cr.attempted {
		t.correct = false
	}
	return true
}

// measure runs units of the workload until the next one would overrun
// the measurement time, and reports the end-to-end metrics as medians
// over units.
func measure(w *workloadDef, in seeds, budget time.Duration, stdout io.Writer) result {
	t := tally{correct: true}
	var setups, walls, cpus, rates, rss, units []float64
	var t4err float64 = math.NaN()

	if w.setupSample != nil {
		start := time.Now()
		for len(setups) < setupMaxSamples && (len(setups) < 3 || time.Since(start) < setupBudget) {
			runtime.GC()
			d, err := w.setupSample(in)
			if err != nil {
				t.correct = false
				fmt.Fprintf(stdout, "FAILED set-up: %v\n", err)
				break
			}
			setups = append(setups, d.Seconds())
		}
	}

	start := time.Now()
	for {
		runtime.GC()
		// Each unit's own peak: without a reset, VmHWM is a maximum over
		// the whole run and rises with the run's length.
		resetErr := resetPeakRSS()
		unitStart := time.Now()
		cr, err := safeCall(func() (callResult, error) { return w.call(in) })
		units = append(units, time.Since(unitStart).Seconds())
		if resetErr == nil {
			if mb, err := peakRSSMB(); err == nil {
				rss = append(rss, mb)
			}
		}
		if t.add(w, in, cr, err, stdout) {
			if w.setupSample == nil {
				setups = append(setups, cr.setup.Seconds())
			}
			walls = append(walls, cr.wall.Seconds())
			cpus = append(cpus, cr.cpu.Seconds())
			rates = append(rates, float64(cr.attempted)/cr.wall.Seconds())
			if math.IsNaN(t4err) && w.fidelity == nil {
				t4err = cr.t4err
			}
		}
		if time.Since(start)+time.Duration(median(units)*float64(time.Second)) > budget {
			break
		}
	}
	if len(rss) == 0 { // no reset available: the whole run's peak
		mb, err := peakRSSMB()
		if err != nil {
			t.correct = false
		}
		rss = append(rss, mb)
	}
	if w.fidelity != nil {
		var err error
		if t4err, err = w.fidelity(); err != nil {
			t.correct = false
			fmt.Fprintf(stdout, "FAILED fidelity: %v\n", err)
		}
	}
	if len(walls) == 0 || math.IsNaN(t4err) {
		t.correct = false
	}
	fmt.Fprintf(stdout, "units %d  fingerprint %s\n", len(units), t.fp)
	fmt.Fprintf(stdout, "  wall_s  over units:   %s\n", spreadLine(walls))
	fmt.Fprintf(stdout, "  setup_s over samples: %s\n", spreadLine(setups))

	delivered := 0.0
	if t.attempted > 0 {
		delivered = 100 * float64(t.attempted-t.failed) / float64(t.attempted)
	}
	return result{
		Correct:   t.correct,
		Attempted: max(t.attempted, 1),
		Failed:    t.failed,
		Metrics: finite(map[string]metric{
			"wall_s":         {median(walls), "s"},
			"cpu_s":          {median(cpus), "s"},
			"setup_s":        {median(setups), "s"},
			"peak_rss_mb":    {median(rss), "MB"},
			"msgs_per_s":     {median(rates), "1/s"},
			"delivered_pct":  {delivered, "%"},
			"table4_err_pct": {t4err, "%"},
		}),
	}
}

// traced makes one untraced reference call, then one traced call with
// the CPU profile on, checks the traced call reproduced the reference's
// simulated results, and reports the per-layer metrics.
func traced(w *workloadDef, in seeds, stdout io.Writer) result {
	t := tally{correct: true}
	runtime.GC()
	ref, err := safeCall(func() (callResult, error) { return w.call(in) })
	t.add(w, in, ref, err, stdout)

	runtime.GC()
	var ms0 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		t.correct = false
		fmt.Fprintf(stdout, "FAILED profile: %v\n", err)
	}
	var cnt *counters
	tr, err := safeCall(func() (callResult, error) {
		cr, c, err := w.traced(in)
		cnt = c
		return cr, err
	})
	pprof.StopCPUProfile()
	var ms1 runtime.MemStats
	runtime.ReadMemStats(&ms1)
	if !t.add(w, in, tr, err, stdout) || cnt == nil {
		cnt = &counters{}
	}
	cnt.gcCycles = ms1.NumGC - ms0.NumGC
	cnt.allocBytes = ms1.TotalAlloc - ms0.TotalAlloc
	if cnt.core.Duplicates != 0 {
		t.correct = false
		fmt.Fprintf(stdout, "FAILED: %d duplicate deliveries screened\n", cnt.core.Duplicates)
	}

	var self map[string]float64
	if samples, err := decodeProfile(prof.Bytes()); err != nil {
		t.correct = false
		fmt.Fprintf(stdout, "FAILED profile: %v\n", err)
	} else {
		self = fold(samples)
	}
	var full fingerprint
	full.add("public", tr.fp)
	cnt.layerCounts(&full)
	fmt.Fprintf(stdout, "fingerprint %s (reference %s)  full %s\n", tr.fp, ref.fp, full.sum())
	share := shares(self)
	for _, l := range sortedLayers(self) {
		fmt.Fprintf(stdout, "  profile %-10s %7.3f s %5.1f%%\n", l, self[l], share[l])
	}

	m := layerMetrics(cnt, self, ref, tr)
	return result{Correct: t.correct, Attempted: max(t.attempted, 1), Failed: t.failed, Metrics: finite(m)}
}

// layerMetrics derives the per-layer metrics of a traced call.
func layerMetrics(c *counters, self map[string]float64, ref, tr callResult) map[string]metric {
	m := make(map[string]metric)
	named := map[string]bool{}
	for _, l := range profiledLayers {
		named[l] = true
		m[l+".self_s"] = metric{self[l], "s"}
	}
	var other float64
	for l, v := range self {
		if !named[l] {
			other += v
		}
	}
	m["other.self_s"] = metric{other, "s"}

	refWall := ref.wall.Seconds()
	m["sim.events"] = metric{float64(c.events), "count"}
	m["sim.events_per_msg"] = metric{ratio(float64(c.events), float64(c.messages)), "ratio"}
	m["sim.events_per_s"] = metric{ratio(float64(c.events), refWall), "1/s"}
	var busyMax, busyMin, wait float64
	var windows, posts uint64
	for i, s := range c.shards {
		b := s.Busy.Seconds()
		if i == 0 || b > busyMax {
			busyMax = b
		}
		if i == 0 || b < busyMin {
			busyMin = b
		}
		wait += math.Max(0, tr.wall.Seconds()-b)
		windows = max(windows, s.Windows)
		posts += s.Posted
	}
	m["sim.shard_busy_max_s"] = metric{busyMax, "s"}
	m["sim.shard_busy_min_s"] = metric{busyMin, "s"}
	m["sim.barrier_wait_s"] = metric{wait, "s"}
	m["sim.windows"] = metric{float64(windows), "count"}
	m["sim.cross_posts"] = metric{float64(posts), "count"}

	m["myrinet.fabric_build_s"] = metric{c.fabricBuild.Seconds(), "s"}
	m["myrinet.packets"] = metric{float64(c.fab.Packets), "count"}
	m["myrinet.wire_bytes"] = metric{float64(c.fab.WireBytes), "bytes"}
	m["myrinet.payload_per_wire"] = metric{ratio(float64(c.fab.PayloadBytes), float64(c.fab.WireBytes)), "ratio"}
	m["myrinet.acks_per_data"] = metric{ratio(float64(c.fab.ByType[1]), float64(c.fab.ByType[0])), "ratio"}
	m["myrinet.port_util_max"] = metric{c.portUtilMax, "ratio"}

	m["lanai.dma_pkts_per_batch"] = metric{ratio(float64(c.lanai.HostDMAPackets), float64(c.lanai.HostDMABatches)), "ratio"}
	m["lanai.net_stalls"] = metric{float64(c.lanai.NetStalls), "count"}
	m["lcp.loops_per_pkt"] = metric{ratio(float64(c.lcp.Loops), float64(c.lanai.Sent+c.lanai.Received)), "ratio"}
	m["lcp.idle_wakes"] = metric{float64(c.lcp.IdleWakes), "count"}

	m["sbus.pio_bytes"] = metric{float64(c.sbus.PIOBytes), "bytes"}
	m["sbus.dma_bytes"] = metric{float64(c.sbus.DMABytes), "bytes"}
	m["sbus.util_mean"] = metric{ratio(c.sbusUtil, float64(c.buses)), "ratio"}

	m["core.sent"] = metric{float64(c.core.Sent), "count"}
	m["core.send_blocks"] = metric{float64(c.core.SendBlocks), "count"}
	m["core.acks_sent"] = metric{float64(c.core.AcksSent), "count"}
	m["core.rejects"] = metric{float64(c.core.RejectsSent), "count"}
	m["core.retransmits"] = metric{float64(c.core.Retransmits), "count"}
	m["core.duplicates"] = metric{float64(c.core.Duplicates), "count"}

	m["cluster.build_s"] = metric{c.clusterBuild.Seconds(), "s"}
	m["workload.prep_s"] = metric{c.prep.Seconds(), "s"}
	m["workload.sim_elapsed_us"] = metric{c.simElapsed.Microseconds(), "us"}
	m["workload.lat_p50_us"] = metric{c.lat.Percentile(0.5).Microseconds(), "us"}
	m["workload.lat_p99_us"] = metric{c.lat.Percentile(0.99).Microseconds(), "us"}
	m["workload.lat_p999_us"] = metric{c.lat.Percentile(0.999).Microseconds(), "us"}
	m["workload.lat_count"] = metric{float64(c.lat.Count()), "count"}
	m["workload.sat_lat_p99_us"] = metric{c.satLat.Percentile(0.99).Microseconds(), "us"}
	m["workload.sat_lat_count"] = metric{float64(c.satLat.Count()), "count"}

	m["runtime.gc_cycles"] = metric{float64(c.gcCycles), "count"}
	m["runtime.alloc_mb"] = metric{float64(c.allocBytes) / (1 << 20), "MB"}
	m["trace.overhead_pct"] = metric{100 * ratio(tr.wall.Seconds()+tr.setup.Seconds()-refWall-ref.setup.Seconds(),
		refWall+ref.setup.Seconds()), "%"}
	return m
}

// profiledLayers are the fm/internal modules whose self time is
// reported by name; every other module's goes to other.self_s.
var profiledLayers = []string{"sim", "myrinet", "lanai", "lcp", "ring", "sbus", "host", "core",
	"cluster", "workload", "stats", "metrics", runtimeLayer}

// spreadLine summarizes samples as count, min, median and max.
func spreadLine(v []float64) string {
	if len(v) == 0 {
		return "none"
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return fmt.Sprintf("n %d  min %.4g  median %.4g  max %.4g", len(s), s[0], median(s), s[len(s)-1])
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// finite replaces values JSON cannot carry (a failed run's NaN medians)
// with zero; such a run already reports correct=false.
func finite(m map[string]metric) map[string]metric {
	for k, v := range m {
		if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			v.Value = 0
			m[k] = v
		}
	}
	return m
}

func printMetrics(w io.Writer, m map[string]metric) {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(w, "  %-26s %16.6g %s\n", k, m[k].Value, m[k].Unit)
	}
}
