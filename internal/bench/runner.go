// Package bench regenerates every quantitative table and figure in the
// paper's evaluation (Figures 3, 4, 7, 8, 9; Table 4; the Section 1/5
// headline numbers) plus the ablations its Discussion calls for.
//
// Each experiment sweeps packet sizes across layer configurations,
// measuring latency by 50-round ping-pong and bandwidth by streaming a
// fixed packet count, then fits the Table 2 metrics (t0, r_inf, n1/2).
// Individual simulation runs are deterministic and single-threaded; the
// harness fans independent runs out over a worker pool.
package bench

import (
	"encoding/csv"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"

	"fm/internal/metrics"
)

// Options controls sweep geometry and effort.
type Options struct {
	// Sizes is the payload sweep for FM-level experiments (the paper
	// plots 0-600 bytes).
	Sizes []int
	// APISizes extends the sweep for the Myrinet API, whose n1/2 lies in
	// the thousands of bytes.
	APISizes []int
	// Packets per bandwidth stream. The paper uses 65,535
	// (metrics.PaperStreamPackets); the default is smaller (converged)
	// for quicker runs.
	Packets int
	// Rounds per ping-pong latency measurement (paper: 50).
	Rounds int
	// Workers bounds harness parallelism: the number of concurrent
	// measurement simulations. Results are independent of the value (see
	// pool.go); it only changes wall-clock time.
	Workers int
	// FabricNodes sizes the fabric-comparison experiment (all-to-all and
	// bisection traffic on crossbar vs. line vs. Clos).
	FabricNodes int
	// PatternNodes sizes the workload-pattern sweep (every pattern on
	// crossbar vs. line vs. Clos at raw, FM, and MPI stack levels).
	PatternNodes int
	// ScaleNodes is the Clos node-count sweep for the scale experiment.
	ScaleNodes []int
	// ScalePattern names the traffic pattern the scale sweep's raw and
	// FM legs drive (see scalePattern for the catalog; default
	// all-to-all, whose output is byte-identical to builds predating
	// the knob). The bisection leg always runs bisection traffic.
	ScalePattern string
	// Shards splits each scale- and faults-experiment simulation across
	// this many shard kernels (conservative parallel DES; DESIGN.md
	// "Parallel engine"). 1, the default, is one shard: the single
	// kernel, byte-identical to runs predating the sharded engine. Only
	// those experiments' 2-level Clos fabrics partition; each
	// experiment's Check bounds the value (shards.go) before anything
	// runs.
	Shards int
	// ShardTiming appends a per-shard runtime breakdown (events run,
	// busy wall time, barrier windows) to sharded reports. fmbench ties
	// it to -timing, so default outputs stay byte-identical.
	ShardTiming bool
	// FaultNodes sizes the faults experiment's Clos fabric (default 32).
	FaultNodes int
	// FaultSeed derives the faults experiment's random fault plan; the
	// whole plan is a pure function of the seed and the fabric shape, so
	// a seed replays byte-identically at any Workers/Shards setting.
	// Seed 0 means the empty plan (clean baseline, nothing injected).
	FaultSeed uint64
	// FaultPlan, when non-empty, is a hand-written plan in the
	// workload.ParseFaultPlan text format ("kind index startUs endUs"
	// events joined by semicolons) and overrides FaultSeed.
	FaultPlan string
	// SoakSource selects the soak experiment's open-loop arrival
	// process: "poisson" (seeded exponential interarrivals) or "fixed"
	// (strict clock, ranks phase-staggered).
	SoakSource string
	// SoakPattern names the base traffic pattern the soak source cycles
	// through (see soakBase for the catalog; default uniform-random).
	SoakPattern string
	// SoakNodes sizes the soak experiment's 2-level Clos (default 64).
	SoakNodes int
	// SoakLoads are the offered-load sweep points in MB/s per node.
	SoakLoads []float64
	// SoakHorizonUs is the arrival horizon in virtual microseconds;
	// SoakWindowUs the series window width.
	SoakHorizonUs int
	SoakWindowUs  int
	// SoakSeed derives the Poisson source's per-rank arrival streams.
	SoakSeed uint64
	// SoakDrain switches the reported span from the fixed horizon
	// (default) to the full timeline through quiescence.
	SoakDrain bool
}

// DefaultOptions returns a sweep that reproduces every curve shape in a
// few seconds of wall time.
func DefaultOptions() Options {
	return Options{
		Sizes:        []int{4, 8, 16, 32, 48, 64, 96, 128, 192, 256, 384, 512, 600},
		APISizes:     []int{16, 64, 128, 256, 512, 600, 1024, 2048, 3072, 4096},
		Packets:      16384,
		Rounds:       metrics.PaperPingPongRounds,
		Workers:      defaultWorkers(),
		FabricNodes:  64,
		PatternNodes: 32,
		ScaleNodes:   []int{64, 128, 256, 512, 1024, 2048, 4096},
		ScalePattern: "all-to-all",
		Shards:       1,
		FaultNodes:   32,
		FaultSeed:    1995,
		SoakSource:   "poisson",
		SoakPattern:  "uniform-random",
		SoakNodes:    64,
		// Contended 112B uniform-random traffic on clos-64 services
		// ~2-2.5 MB/s per node (per-message host overhead dominates —
		// Table 4's ~21 MB/s r_inf is a streamed pingpong figure), so
		// this ladder straddles the knee: p50/p99 are flat through
		// 1.5 MB/s and the last points sit past saturation, where the
		// windowed p99 and the horizon-bell backlog blow up.
		SoakLoads:     []float64{0.5, 1, 1.5, 2, 2.5, 3, 4, 6},
		SoakHorizonUs: 1500,
		SoakWindowUs:  150,
		SoakSeed:      1995,
	}
}

// Curve is one plotted series: a layer configuration swept over sizes.
type Curve struct {
	Name string
	Lat  []metrics.LatPoint
	BW   []metrics.BWPoint
	Fit  metrics.Fit
}

// Row is one Table 4 line: measured metrics next to the paper's.
type Row struct {
	Name    string
	T0us    float64
	RInf    float64
	NHalf   float64
	Extrap  bool
	PaperT0 string
	PaperR  string
	PaperN  string
}

// KV is one headline comparison line: a named metric, measured vs. paper.
type KV struct {
	Metric   string
	Measured string
	Paper    string
}

// Table is a free-form grid for sweep matrices that fit neither the
// Table 4 row shape nor KV pairs (the patterns experiment's
// pattern x fabric x stack-level matrix).
type Table struct {
	Name   string
	Header []string
	Rows   [][]string
}

// SeriesRow is one fixed-width virtual-time window of a TimeSeries.
type SeriesRow struct {
	StartUs   float64 // window opening instant
	Offered   uint64  // open-loop arrivals scheduled in the window
	Delivered uint64  // deliveries completed in the window
	MBps      float64 // delivered payload bandwidth over the window
	P50us     float64 // sojourn-latency percentiles of the window's
	P99us     float64 // deliveries (zero for an idle window)
	P999us    float64
	InFlight  int64  // backlog at window close (cumulative offered-delivered)
	Retrans   uint64 // retransmissions attributed to the window
}

// TimeSeries is one windowed timeline — the report shape streaming
// experiments render, text and CSV, alongside the batch tables.
type TimeSeries struct {
	Name    string
	WidthUs float64
	Rows    []SeriesRow
}

// Report is one regenerated figure or table.
type Report struct {
	ID     string
	Title  string
	Curves []Curve
	Rows   []Row
	KVs    []KV
	Tables []Table
	Series []TimeSeries
	Notes  []string
}

// Experiment binds an ID to its regeneration function. Desc is the
// one-line what-it-measures description `fmbench -list` prints under
// the title. Flags names the fmbench flags, beyond those every
// experiment shares, whose Options fields Run reads; fmbench rejects
// any other such flag. Check, when set, validates those fields and
// Shards; fmbench runs it through Validate before anything runs.
type Experiment struct {
	ID    string
	Title string
	Desc  string
	Run   func(Options) *Report
	Flags []string
	Check func(Options) error
}

// Validate runs the experiment's Check. An experiment without one reads
// no field it could reject and runs every simulation on one kernel, so
// it rejects only -shards > 1.
func (e Experiment) Validate(opt Options) error {
	if e.Check == nil {
		return checkShards(opt, e.ID, 1, "it runs every simulation on one kernel")
	}
	return e.Check(opt)
}

// sweepFlags are the flags a size sweep reads: the two probes of the
// paper's Section 4.1, a ping-pong of -rounds and a stream of -packets
// (-paper-exact: the paper's 65,535).
var sweepFlags = []string{"packets", "rounds", "paper-exact"}

// All returns every experiment in paper order.
func All() []Experiment {
	return []Experiment{
		{"fig3", "Figure 3: LANai-to-LANai performance (baseline vs. streamed vs. theoretical peak)",
			"latency/BW size sweep on the bare LANai path, three firmware variants against the 80 MB/s link peak", Fig3, sweepFlags, nil},
		{"fig4", "Figure 4: Minimal host-to-host performance (hybrid vs. all-DMA SBus management)",
			"host-to-host size sweep isolating the SBus transfer policy: programmed-I/O hybrid vs. all-DMA", Fig4, sweepFlags, nil},
		{"fig7", "Figure 7: Host-to-host performance with buffer management (and switch() interpretation)",
			"adds receive-buffer management to fig4's path; reproduces both readings of the paper's switch() cost", Fig7, sweepFlags, nil},
		{"fig8", "Figure 8: Fast Messages layer performance with flow control",
			"the complete FM 1.0 API: handler dispatch plus window flow control, latency and BW vs. size", Fig8, sweepFlags, nil},
		{"fig9", "Figure 9: Fast Messages vs. Myricom's API",
			"FM against the vendor API it replaced, including the API's thousands-of-bytes n1/2 sweep", Fig9, sweepFlags, nil},
		// Table 4's fits come from the bandwidth streams alone.
		{"table4", "Table 4: Summary of FM 1.0 performance data",
			"fits t0, r_inf, and n1/2 for every layer configuration next to the paper's published values", Table4,
			[]string{"packets", "paper-exact"}, nil},
		{"headline", "Headline numbers (Sections 1 and 5)",
			"the abstract's claims as one table: short-message latency, peak BW, n1/2 vs. the paper", Headline, sweepFlags, nil},
		{"ablations", "Ablations: frame size, flow control, DMA aggregation, ack piggybacking, hardware what-ifs",
			"design-choice sweeps the Discussion calls for, each knob toggled on the full stack", Ablations, sweepFlags, nil},
		{"fabrics", "Fabric scaling: all-to-all and bisection traffic on crossbar vs. line vs. Clos",
			"64-node all-to-all and bisection totals across three topologies at raw and FM stack levels", Fabrics,
			[]string{"fabric-nodes"}, validateFabrics},
		{"mpi", "MPI on FM: the cost of layering (tagged matching vs. raw FM, crossbar and Clos)",
			"MPI-on-FM size sweep vs. raw FM with t0/r_inf/n1/2 fits, on a crossbar and a cross-leaf Clos path", MPILayering, sweepFlags, nil},
		{"patterns", "Workload patterns: the traffic catalog x crossbar/line/Clos x raw/FM/MPI stack levels",
			"every traffic pattern on every fabric at every stack depth, one completion/BW/latency matrix", Patterns,
			[]string{"pattern-nodes"}, validatePatterns},
	}
}

// Extended returns experiments that are registered but excluded from
// All() — and therefore from `-experiment all` — because their runtime
// dwarfs the paper reproductions. Run them by id.
func Extended() []Experiment {
	return []Experiment{
		{"scale", "Clos scaling sweep: 64 to 4096 nodes, raw fabric and full FM stack",
			"full-bisection Clos sweep driving all-to-all and bisection traffic at raw and FM levels; shards with -shards", Scale,
			[]string{"scale-nodes", "scale-pattern"}, ValidateScale},
		{"faults", "Resilience: seeded fault injection (outages, loss, corruption) on a Clos — degraded bisection BW, retransmits, recovery",
			"injects a deterministic fault plan mid-traffic and reports delivery proof, degraded BW, and recovery time; shards with -shards", Faults,
			[]string{"fault-seed", "fault-plan", "fault-nodes"}, ValidateFaults},
		{"soak", "Soak: open-loop offered-load sweep with windowed time series on a Clos",
			"streams Poisson or fixed-rate arrivals through the FM stack across an offered-load ladder; windowed p50/p99/p999 and backlog expose the saturation knee, and an explicit fault plan overlays recovery transients", Soak,
			[]string{"soak-source", "soak-pattern", "soak-nodes", "soak-loads", "soak-horizon-us", "soak-window-us", "soak-seed", "soak-drain", "fault-plan"}, ValidateSoak},
	}
}

// Registry returns every known experiment: the paper set plus the
// extended set.
func Registry() []Experiment { return append(All(), Extended()...) }

// IDs returns every valid experiment id, in registry order.
func IDs() []string {
	var out []string
	for _, e := range Registry() {
		out = append(out, e.ID)
	}
	return out
}

// ByID looks an experiment up; ok is false for unknown IDs.
func ByID(id string) (Experiment, bool) {
	for _, e := range Registry() {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// --- Output ---

// WriteText renders the report as aligned text tables.
func (r *Report) WriteText(w io.Writer) {
	fmt.Fprintf(w, "== %s: %s ==\n", r.ID, r.Title)
	for _, c := range r.Curves {
		fmt.Fprintf(w, "\n-- %s --\n", c.Name)
		fmt.Fprintf(w, "%8s  %14s  %14s\n", "bytes", "latency (us)", "bw (MB/s)")
		sizes := curveSizes(c)
		for _, n := range sizes {
			lat, hasLat := latAt(c, n)
			bw, hasBW := bwAt(c, n)
			ls, bs := "-", "-"
			if hasLat {
				ls = fmt.Sprintf("%.2f", lat)
			}
			if hasBW {
				bs = fmt.Sprintf("%.2f", bw)
			}
			fmt.Fprintf(w, "%8d  %14s  %14s\n", n, ls, bs)
		}
		if len(c.BW) >= 2 {
			fmt.Fprintf(w, "fit: t0=%.1fus  r_inf=%.1fMB/s  n1/2=%s\n",
				c.Fit.T0.Microseconds(), c.Fit.RInf, nhalfString(c.Fit))
		}
	}
	if len(r.Rows) > 0 {
		fmt.Fprintf(w, "\n%-44s %10s %10s %10s   %s\n",
			"configuration", "t0 (us)", "r_inf", "n1/2 (B)", "paper (t0 / r_inf / n1/2)")
		for _, row := range r.Rows {
			n := fmt.Sprintf("%.0f", row.NHalf)
			if row.Extrap {
				n += "*"
			}
			if math.IsInf(row.NHalf, 1) {
				n = "inf"
			}
			fmt.Fprintf(w, "%-44s %10.1f %10.1f %10s   %s / %s / %s\n",
				row.Name, row.T0us, row.RInf, n, row.PaperT0, row.PaperR, row.PaperN)
		}
		fmt.Fprintln(w, "(* = extrapolated beyond the sweep)")
	}
	if len(r.KVs) > 0 {
		fmt.Fprintf(w, "\n%-46s %16s %16s\n", "metric", "measured", "paper")
		for _, kv := range r.KVs {
			fmt.Fprintf(w, "%-46s %16s %16s\n", kv.Metric, kv.Measured, kv.Paper)
		}
	}
	for _, t := range r.Tables {
		fmt.Fprintf(w, "\n-- %s --\n", t.Name)
		widths := make([]int, len(t.Header))
		for c, h := range t.Header {
			widths[c] = len(h)
		}
		for _, row := range t.Rows {
			for c, cell := range row {
				if c < len(widths) && len(cell) > widths[c] {
					widths[c] = len(cell)
				}
			}
		}
		writeRow := func(cells []string) {
			for c, cell := range cells {
				if c > 0 {
					fmt.Fprint(w, "  ")
				}
				switch {
				case c >= len(widths): // ragged row: no width to pad to
					fmt.Fprint(w, cell)
				case c == 0:
					fmt.Fprintf(w, "%-*s", widths[c], cell)
				default:
					fmt.Fprintf(w, "%*s", widths[c], cell)
				}
			}
			fmt.Fprintln(w)
		}
		writeRow(t.Header)
		for _, row := range t.Rows {
			writeRow(row)
		}
	}
	for _, s := range r.Series {
		fmt.Fprintf(w, "\n-- %s (%.0fus windows) --\n", s.Name, s.WidthUs)
		fmt.Fprintf(w, "%8s %8s %10s %9s %9s %9s %9s %9s %8s\n",
			"t (us)", "offered", "delivered", "MB/s", "p50 (us)", "p99 (us)", "p999(us)", "inflight", "retrans")
		for _, row := range s.Rows {
			fmt.Fprintf(w, "%8.0f %8d %10d %9.2f %9.1f %9.1f %9.1f %9d %8d\n",
				row.StartUs, row.Offered, row.Delivered, row.MBps,
				row.P50us, row.P99us, row.P999us, row.InFlight, row.Retrans)
		}
	}
	for _, note := range r.Notes {
		fmt.Fprintf(w, "note: %s\n", note)
	}
	fmt.Fprintln(w)
}

// WriteCSV writes one CSV per curve, table and series, plus a rows.csv,
// into dir. It returns the first error creating, writing or closing a
// file.
func (r *Report) WriteCSV(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for _, c := range r.Curves {
		recs := [][]string{{"bytes", "latency_us", "bandwidth_MBps"}}
		for _, n := range curveSizes(c) {
			rec := []string{strconv.Itoa(n), "", ""}
			if lat, ok := latAt(c, n); ok {
				rec[1] = fmt.Sprintf("%.4f", lat)
			}
			if bw, ok := bwAt(c, n); ok {
				rec[2] = fmt.Sprintf("%.4f", bw)
			}
			recs = append(recs, rec)
		}
		if err := writeCSV(filepath.Join(dir, r.ID+"_"+sanitize(c.Name)+".csv"), recs); err != nil {
			return err
		}
	}
	if len(r.Rows) > 0 {
		recs := [][]string{{"configuration", "t0_us", "rinf_MBps", "nhalf_bytes", "extrapolated",
			"paper_t0", "paper_rinf", "paper_nhalf"}}
		for _, row := range r.Rows {
			recs = append(recs, []string{row.Name,
				fmt.Sprintf("%.2f", row.T0us), fmt.Sprintf("%.2f", row.RInf),
				fmt.Sprintf("%.0f", row.NHalf), strconv.FormatBool(row.Extrap),
				row.PaperT0, row.PaperR, row.PaperN})
		}
		if err := writeCSV(filepath.Join(dir, r.ID+"_rows.csv"), recs); err != nil {
			return err
		}
	}
	for _, t := range r.Tables {
		recs := append([][]string{t.Header}, t.Rows...)
		if err := writeCSV(filepath.Join(dir, r.ID+"_"+sanitize(t.Name)+".csv"), recs); err != nil {
			return err
		}
	}
	for _, s := range r.Series {
		recs := [][]string{{"t_us", "offered", "delivered", "MBps",
			"p50_us", "p99_us", "p999_us", "inflight", "retransmits"}}
		for _, row := range s.Rows {
			recs = append(recs, []string{
				fmt.Sprintf("%.0f", row.StartUs),
				strconv.FormatUint(row.Offered, 10),
				strconv.FormatUint(row.Delivered, 10),
				fmt.Sprintf("%.4f", row.MBps),
				fmt.Sprintf("%.4f", row.P50us),
				fmt.Sprintf("%.4f", row.P99us),
				fmt.Sprintf("%.4f", row.P999us),
				strconv.FormatInt(row.InFlight, 10),
				strconv.FormatUint(row.Retrans, 10),
			})
		}
		if err := writeCSV(filepath.Join(dir, r.ID+"_"+sanitize(s.Name)+".csv"), recs); err != nil {
			return err
		}
	}
	return nil
}

// writeCSV writes records to a new file at path. It returns the first
// create, write, flush or close error, so a full disk fails the run
// instead of leaving a short file behind.
func writeCSV(path string, records [][]string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := csv.NewWriter(f).WriteAll(records); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func sanitize(s string) string {
	out := make([]rune, 0, len(s))
	for _, r := range s {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9':
			out = append(out, r)
		default:
			out = append(out, '_')
		}
	}
	return string(out)
}

func nhalfString(f metrics.Fit) string {
	if math.IsInf(f.NHalf, 1) {
		return "inf"
	}
	s := fmt.Sprintf("%.0fB", f.NHalf)
	if f.NHalfExtrapolated {
		s += "*"
	}
	return s
}

func curveSizes(c Curve) []int {
	set := map[int]bool{}
	for _, p := range c.Lat {
		set[p.N] = true
	}
	for _, p := range c.BW {
		set[p.N] = true
	}
	out := make([]int, 0, len(set))
	for n := range set {
		out = append(out, n)
	}
	sort.Ints(out)
	return out
}

func latAt(c Curve, n int) (float64, bool) {
	for _, p := range c.Lat {
		if p.N == n {
			return p.OneWay.Microseconds(), true
		}
	}
	return 0, false
}

func bwAt(c Curve, n int) (float64, bool) {
	for _, p := range c.BW {
		if p.N == n {
			return p.MBps, true
		}
	}
	return 0, false
}
