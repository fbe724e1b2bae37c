package bench

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"fm/internal/cost"
	"fm/internal/myriapi"
	"fm/internal/workload"
)

// tiny returns sweep options small enough for unit tests.
func tiny() Options {
	o := DefaultOptions()
	o.Sizes = []int{16, 64, 128, 256}
	o.APISizes = []int{128, 1024, 4096}
	o.Packets = 400
	o.Rounds = 10
	o.Workers = 2
	return o
}

func TestRegistry(t *testing.T) {
	ids := []string{"fig3", "fig4", "fig7", "fig8", "fig9", "table4", "headline", "ablations", "fabrics", "mpi", "patterns"}
	for _, id := range ids {
		if _, ok := ByID(id); !ok {
			t.Errorf("experiment %q missing", id)
		}
	}
	if _, ok := ByID("nope"); ok {
		t.Error("unknown id resolved")
	}
	if len(All()) != len(ids) {
		t.Errorf("All() has %d experiments", len(All()))
	}
	// The extended registry adds scale (not part of `all`).
	if _, ok := ByID("scale"); !ok {
		t.Error("extended experiment scale missing from registry")
	}
	if want := len(ids) + len(Extended()); len(IDs()) != want {
		t.Errorf("IDs() lists %d experiments, want %d", len(IDs()), want)
	}
}

func TestMPIShapeClaims(t *testing.T) {
	r := MPILayering(tiny())
	if len(r.Curves) != 5 {
		t.Fatalf("curves = %d", len(r.Curves))
	}
	raw, layered := r.Curves[0], r.Curves[1]
	rawClos, layeredClos := r.Curves[2], r.Curves[3]
	// Layering costs latency and bandwidth at every size, on both
	// fabrics.
	for i := range raw.BW {
		if layered.BW[i].MBps >= raw.BW[i].MBps {
			t.Errorf("at %dB MPI bandwidth (%.1f) not below raw FM (%.1f)",
				raw.BW[i].N, layered.BW[i].MBps, raw.BW[i].MBps)
		}
		if layered.Lat[i].OneWay <= raw.Lat[i].OneWay {
			t.Errorf("at %dB MPI latency not above raw FM", raw.Lat[i].N)
		}
		if layeredClos.BW[i].MBps >= rawClos.BW[i].MBps {
			t.Errorf("at %dB Clos MPI bandwidth not below raw FM", raw.BW[i].N)
		}
	}
	// The Clos pair pays extra switch hops in latency.
	if rawClos.Lat[0].OneWay <= raw.Lat[0].OneWay {
		t.Error("cross-leaf Clos latency not above crossbar latency")
	}
	// The layering cost in t0 is a fixed software cost: a few us.
	dt0 := layered.Fit.T0.Microseconds() - raw.Fit.T0.Microseconds()
	if dt0 <= 0 || dt0 > 10 {
		t.Errorf("layering t0 cost %.1fus outside (0, 10]", dt0)
	}
}

func TestMPIDeterminism(t *testing.T) {
	opt := tiny()
	opt.Sizes = []int{16, 128}
	opt.Workers = 1
	a := MPILayering(opt)
	opt.Workers = 5
	b := MPILayering(opt)
	var ta, tb bytes.Buffer
	a.WriteText(&ta)
	b.WriteText(&tb)
	if ta.String() != tb.String() {
		t.Error("mpi experiment output depends on worker count")
	}
}

func TestFig3ShapeClaims(t *testing.T) {
	r := Fig3(tiny())
	if len(r.Curves) != 3 {
		t.Fatalf("curves = %d", len(r.Curves))
	}
	base, stream, theo := r.Curves[0], r.Curves[1], r.Curves[2]
	// Streamed strictly dominates baseline; theory dominates both.
	for i := range base.BW {
		if stream.BW[i].MBps < base.BW[i].MBps {
			t.Errorf("at %dB streamed (%.1f) below baseline (%.1f)",
				base.BW[i].N, stream.BW[i].MBps, base.BW[i].MBps)
		}
		if theo.BW[i].MBps < stream.BW[i].MBps {
			t.Errorf("at %dB theory below streamed", base.BW[i].N)
		}
	}
	if stream.Fit.T0 >= base.Fit.T0 {
		t.Errorf("streamed t0 %v not below baseline %v", stream.Fit.T0, base.Fit.T0)
	}
	// Both approach link bandwidth asymptotically.
	if base.Fit.RInf < 70 || base.Fit.RInf > 82 {
		t.Errorf("baseline r_inf = %.1f, want ~76.3", base.Fit.RInf)
	}
}

func TestFig4CrossoverClaim(t *testing.T) {
	opt := tiny()
	opt.Sizes = []int{16, 64, 512}
	r := Fig4(opt)
	hybrid, alldma := r.Curves[0], r.Curves[1]
	// Hybrid wins short messages, all-DMA wins long ones (Section 4.3).
	if hybrid.BW[0].MBps <= alldma.BW[0].MBps {
		t.Errorf("at 16B hybrid (%.2f) not above all-DMA (%.2f)",
			hybrid.BW[0].MBps, alldma.BW[0].MBps)
	}
	last := len(opt.Sizes) - 1
	if alldma.BW[last].MBps <= hybrid.BW[last].MBps {
		t.Errorf("at 512B all-DMA (%.2f) not above hybrid (%.2f)",
			alldma.BW[last].MBps, hybrid.BW[last].MBps)
	}
	// Latency: hybrid lower at small sizes.
	if hybrid.Lat[0].OneWay >= alldma.Lat[0].OneWay {
		t.Error("hybrid latency not below all-DMA at 16B")
	}
}

func TestFig7InterpretationClaim(t *testing.T) {
	opt := tiny()
	opt.Sizes = []int{16, 64, 128}
	r := Fig7(opt)
	buf, sw := r.Curves[1], r.Curves[2]
	if sw.Fit.T0 <= buf.Fit.T0 {
		t.Errorf("switch() t0 %v not above buffer-mgmt %v", sw.Fit.T0, buf.Fit.T0)
	}
	if sw.Fit.NHalf <= buf.Fit.NHalf {
		t.Errorf("switch() n1/2 %.0f not above buffer-mgmt %.0f", sw.Fit.NHalf, buf.Fit.NHalf)
	}
}

func TestFig9OrdersOfMagnitudeClaim(t *testing.T) {
	opt := tiny()
	r := Fig9(opt)
	fm, api := r.Curves[0], r.Curves[1]
	// The central claim: API n1/2 is orders of magnitude above FM's.
	if api.Fit.NHalf < 20*fm.Fit.NHalf {
		t.Errorf("API n1/2 (%.0f) not >> FM n1/2 (%.0f)", api.Fit.NHalf, fm.Fit.NHalf)
	}
	// And API latency is ~two orders above FM at short sizes.
	if api.Lat[0].OneWay < 3*fm.Lat[0].OneWay {
		t.Errorf("API latency %v not far above FM %v", api.Lat[0].OneWay, fm.Lat[0].OneWay)
	}
}

// TestTable4Pinned holds every Table 4 cell to recorded values, at 1024
// packets per stream (each cell within 3% of the default 16,384-packet
// table). A cell that drifts more than 0.1% either way fails: a change
// that means to move the table updates these values and gives its
// reason.
func TestTable4Pinned(t *testing.T) {
	want := []struct {
		name             string
		t0us, rInf, nh   float64
		extrapolatedHalf bool
	}{
		{"Baseline LCP (LANai only)", 4.304648, 76.28931, 349.4401, false},
		{"Streamed LCP (LANai only)", 3.603964, 76.28931, 293.6676, false},
		{"Streamed + hybrid", 2.544554, 21.08600, 46.41726, false},
		{"Streamed + hybrid + buf", 2.976876, 21.39576, 54.67853, false},
		{"Streamed + hybrid + buf + flow", 3.733562, 20.73108, 66.92080, false},
		{"Streamed + hybrid + buf + switch", 5.855215, 25.15090, 105.9265, false},
		{"Streamed + hybrid + buf + switch + flow", 6.439784, 24.11597, 110.4823, false},
		{"Streamed + all DMA", 5.274150, 30.21942, 170.0288, false},
		{"Myrinet API (myri_cmd_send_imm())", 100.6291, 16.01329, 4969.285, true},
		{"Myrinet API (myri_cmd_send())", 129.2269, 17.11842, 5363.235, true},
	}
	opt := DefaultOptions()
	opt.Packets = 1024
	rows := Table4(opt).Rows
	if len(rows) != len(want) {
		t.Fatalf("Table 4 has %d rows, want %d", len(rows), len(want))
	}
	near := func(got, want float64) bool { return math.Abs(got-want) <= 1e-3*math.Abs(want) }
	for i, w := range want {
		r := rows[i]
		if r.Name != w.name || !near(r.T0us, w.t0us) || !near(r.RInf, w.rInf) || !near(r.NHalf, w.nh) ||
			r.Extrap != w.extrapolatedHalf {
			t.Errorf("row %d: got %q t0=%.6gus r_inf=%.7g n1/2=%.7g extrapolated=%v, want %q t0=%.6gus r_inf=%.7g n1/2=%.7g extrapolated=%v",
				i, r.Name, r.T0us, r.RInf, r.NHalf, r.Extrap, w.name, w.t0us, w.rInf, w.nh, w.extrapolatedHalf)
		}
	}
}

// TestHeadlinePinned holds the headline report to recorded values at
// 1024 packets per stream, under TestTable4Pinned's rule: every KV
// exactly as printed, and the bandwidth curve's fitted t0, r_inf and
// n1/2 within 0.1%. A change that means to move them updates these
// values and gives its reason.
func TestHeadlinePinned(t *testing.T) {
	want := []KV{
		{"one-way latency, 4-word message (us)", "18.2", "25"},
		{"one-way latency, 128B packet (us)", "27.6", "32"},
		{"bandwidth @ 128B (MB/s)", "13.8", "16.2"},
		{"bandwidth @ 512B (MB/s)", "17.8", "19.6"},
		{"n1/2 (bytes)", "67", "54"},
		{"bandwidth @ n1/2 (MB/s)", "10.4", "10.7"},
	}
	opt := DefaultOptions()
	opt.Packets = 1024
	r := Headline(opt)
	if !slices.Equal(r.KVs, want) {
		t.Errorf("headline KVs = %q, want %q", r.KVs, want)
	}
	fit := r.Curves[0].Fit
	near := func(got, want float64) bool { return math.Abs(got-want) <= 1e-3*math.Abs(want) }
	if !near(fit.T0.Microseconds(), 3.733562) || !near(fit.RInf, 20.73108) || !near(fit.NHalf, 66.92080) {
		t.Errorf("headline curve fit t0=%.6gus r_inf=%.7g n1/2=%.7g, want t0=3.733562us r_inf=20.73108 n1/2=66.92080",
			fit.T0.Microseconds(), fit.RInf, fit.NHalf)
	}
}

func TestTheoreticalCurveMatchesAppendixA(t *testing.T) {
	p := cost.Default()
	c := theoreticalCurve(p, []int{16, 112}) // 112+16 header = 128 wire bytes
	// l = 320 + 12.5*128 + 550 = 2470 ns.
	want := 2470.0
	if got := c.Lat[1].OneWay.Nanoseconds(); math.Abs(got-want) > 1 {
		t.Errorf("theoretical latency = %.0f ns, want %.0f", got, want)
	}
}

func TestFabricsExperiment(t *testing.T) {
	opt := tiny()
	opt.FabricNodes = 8
	r := Fabrics(opt)
	if len(r.KVs) < 11 {
		t.Fatalf("fabrics produced %d KVs", len(r.KVs))
	}
	// KVs come in threes per topology: a2a BW, bisection BW, mean hops.
	bw := func(i int) float64 {
		var v float64
		if _, err := fmt.Sscanf(r.KVs[i].Measured, "%f", &v); err != nil {
			t.Fatalf("unparseable KV %q", r.KVs[i].Measured)
		}
		return v
	}
	crossA2A, lineA2A, closA2A := bw(0), bw(3), bw(6)
	crossBis, lineBis, closBis := bw(1), bw(4), bw(7)
	// The crossbar is the upper bound; the Clos must beat the line on both
	// patterns and the line's bisection must be far below the crossbar's.
	if lineA2A >= crossA2A || closA2A > crossA2A {
		t.Errorf("all-to-all ordering wrong: crossbar %.0f line %.0f clos %.0f",
			crossA2A, lineA2A, closA2A)
	}
	if closA2A <= lineA2A || closBis <= lineBis {
		t.Errorf("clos (%0.f/%0.f) not above line (%0.f/%0.f)",
			closA2A, closBis, lineA2A, lineBis)
	}
	if lineBis > crossBis/2 {
		t.Errorf("line bisection %.0f not trunk-bottlenecked vs crossbar %.0f", lineBis, crossBis)
	}
}

// TestScaleExperimentSmall runs the scale sweep at toy sizes: every
// point must produce its five metrics, and the report must be identical
// at any worker count (the same guarantee the paper experiments carry).
func TestScaleExperimentSmall(t *testing.T) {
	opt := DefaultOptions()
	opt.ScaleNodes = []int{8, 16}
	parallel := Scale(opt)
	if got, want := len(parallel.KVs), 5*len(opt.ScaleNodes); got != want {
		t.Fatalf("scale produced %d metrics, want %d", got, want)
	}
	opt.Workers = 1
	serial := Scale(opt)
	for i := range parallel.KVs {
		if parallel.KVs[i] != serial.KVs[i] {
			t.Errorf("worker-dependent result: %v vs %v", parallel.KVs[i], serial.KVs[i])
		}
	}
}

// TestPatternsExperiment checks the sweep's shape (every pattern x
// fabric cell present, in catalog order) and the workload-layer
// guarantee: the report is byte-identical at any worker count and
// across repeated runs.
func TestPatternsExperiment(t *testing.T) {
	opt := tiny()
	opt.PatternNodes = 8
	render := func(workers int) string {
		opt.Workers = workers
		var buf bytes.Buffer
		Patterns(opt).WriteText(&buf)
		return buf.String()
	}
	serial := render(1)
	if parallel := render(6); parallel != serial {
		t.Fatalf("patterns output depends on worker count:\n--- serial ---\n%s\n--- parallel ---\n%s",
			serial, parallel)
	}
	if again := render(1); again != serial {
		t.Fatal("patterns output not reproducible across runs")
	}

	r := Patterns(opt)
	if len(r.Tables) != 1 {
		t.Fatalf("patterns produced %d tables", len(r.Tables))
	}
	tab := r.Tables[0]
	pats := patternCatalog()
	specs := workload.Specs(8)
	if want := len(pats) * len(specs); len(tab.Rows) != want {
		t.Fatalf("table has %d rows, want %d", len(tab.Rows), want)
	}
	for i, row := range tab.Rows {
		if len(row) != len(tab.Header) {
			t.Fatalf("row %d has %d cells, header has %d", i, len(row), len(tab.Header))
		}
		if want := pats[i/len(specs)].Name(); row[0] != want {
			t.Errorf("row %d pattern %q, want %q", i, row[0], want)
		}
		if want := specs[i%len(specs)].Name; row[1] != want {
			t.Errorf("row %d fabric %q, want %q", i, row[1], want)
		}
	}
}

func TestFabricGeometry(t *testing.T) {
	for _, tc := range []struct{ n, g, groups int }{
		{64, 8, 8}, {16, 4, 4}, {8, 2, 4}, {4, 2, 2}, {7, 1, 7},
	} {
		g, groups := workload.Geometry(tc.n)
		if g != tc.g || groups != tc.groups {
			t.Errorf("workload.Geometry(%d) = (%d,%d), want (%d,%d)", tc.n, g, groups, tc.g, tc.groups)
		}
	}
}

// The engine guarantee: a parallel sweep renders byte-identically to the
// serial one. Simulations are deterministic and jobs write disjoint
// slots, so worker count must be invisible in the output.
func TestParallelSweepMatchesSerialByteForByte(t *testing.T) {
	render := func(workers int) string {
		opt := tiny()
		opt.Workers = workers
		opt.FabricNodes = 8
		var buf bytes.Buffer
		for _, r := range []*Report{Fig8(opt), Fabrics(opt)} {
			r.WriteText(&buf)
		}
		return buf.String()
	}
	serial := render(1)
	parallel := render(8)
	if serial != parallel {
		t.Errorf("parallel output differs from serial:\n--- serial ---\n%s\n--- parallel ---\n%s",
			serial, parallel)
	}
}

// A panicking job surfaces on the caller's goroutine, and the
// lowest-indexed failure wins regardless of scheduling.
func TestRunParallelPropagatesPanics(t *testing.T) {
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("panic not propagated")
		}
		if s, ok := r.(string); !ok || !strings.Contains(s, "job 3") {
			t.Errorf("recovered %v, want first failing job (3)", r)
		}
	}()
	jobs := make([]func(), 10)
	for i := range jobs {
		i := i
		jobs[i] = func() {
			if i >= 3 {
				panic(fmt.Sprintf("boom %d", i))
			}
		}
	}
	runParallel(2, jobs)
}

// TestRunParallelLowestIndexWinsWithJobZero pins the documented
// lowest-index-wins rule in its corner case: when job 0 panics alongside
// a higher-indexed job, the re-raised panic must be job 0's, at any
// worker count — the reported failure may not depend on which worker
// happened to hit its panic first.
func TestRunParallelLowestIndexWinsWithJobZero(t *testing.T) {
	for _, workers := range []int{1, 2, 8} {
		func() {
			defer func() {
				r := recover()
				if r == nil {
					t.Fatalf("workers=%d: panic not propagated", workers)
				}
				s, ok := r.(string)
				if !ok || !strings.Contains(s, "job 0") || !strings.Contains(s, "boom zero") {
					t.Errorf("workers=%d: recovered %v, want job 0's panic", workers, r)
				}
				if strings.Contains(s, "boom five") {
					t.Errorf("workers=%d: job 5's panic reported instead of job 0's", workers)
				}
			}()
			jobs := make([]func(), 8)
			for i := range jobs {
				i := i
				jobs[i] = func() {
					switch i {
					case 0:
						panic("boom zero")
					case 5:
						panic("boom five")
					}
				}
			}
			runParallel(workers, jobs)
		}()
	}
}

func TestMapNOrdersResults(t *testing.T) {
	got := mapN(4, 50, func(i int) int { return i * i })
	for i, v := range got {
		if v != i*i {
			t.Fatalf("mapN[%d] = %d", i, v)
		}
	}
}

func TestRunParallelCompletesAllJobs(t *testing.T) {
	results := make([]int, 100)
	var jobs []func()
	for i := range results {
		i := i
		jobs = append(jobs, func() { results[i] = i + 1 })
	}
	runParallel(7, jobs)
	for i, v := range results {
		if v != i+1 {
			t.Fatalf("job %d not run", i)
		}
	}
	runParallel(0, []func(){func() {}}) // workers < 1 clamps
}

func TestReportTextAndCSV(t *testing.T) {
	opt := tiny()
	opt.Sizes = []int{16, 64}
	r := Fig8(opt)
	var buf bytes.Buffer
	r.WriteText(&buf)
	out := buf.String()
	if !strings.Contains(out, "fig8") || !strings.Contains(out, "flow ctrl") {
		t.Errorf("text output missing content:\n%s", out)
	}
	dir := t.TempDir()
	if err := r.WriteCSV(dir); err != nil {
		t.Fatal(err)
	}
	files, err := filepath.Glob(filepath.Join(dir, "fig8_*.csv"))
	if err != nil || len(files) != len(r.Curves) {
		t.Fatalf("csv files = %v (err %v)", files, err)
	}
	data, err := os.ReadFile(files[0])
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(data), "bytes,latency_us,bandwidth_MBps") {
		t.Errorf("csv header wrong: %s", data[:40])
	}
}

// Tables render in text and CSV: the -csv path for the patterns
// experiment.
func TestReportTableTextAndCSV(t *testing.T) {
	r := &Report{ID: "pat", Title: "table test", Tables: []Table{{
		Name:   "grid one",
		Header: []string{"pattern", "value"},
		Rows:   [][]string{{"a", "1"}, {"longer-name", "23"}},
	}}}
	var buf bytes.Buffer
	r.WriteText(&buf)
	out := buf.String()
	for _, want := range []string{"grid one", "pattern", "longer-name"} {
		if !strings.Contains(out, want) {
			t.Errorf("text output missing %q:\n%s", want, out)
		}
	}
	dir := t.TempDir()
	if err := r.WriteCSV(dir); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, "pat_grid_one.csv"))
	if err != nil {
		t.Fatal(err)
	}
	if got := string(data); got != "pattern,value\na,1\nlonger-name,23\n" {
		t.Errorf("table csv = %q", got)
	}
}

// WriteCSV must return the error when a file cannot be written, not
// leave a short file behind a nil error. Each report below fills one of
// the four kinds of CSV file, and that file is a symlink to /dev/full,
// where every write fails with ENOSPC.
func TestWriteCSVReportsWriteError(t *testing.T) {
	if _, err := os.Stat("/dev/full"); err != nil {
		t.Skip("no /dev/full on this platform")
	}
	for file, r := range map[string]*Report{
		"r_c.csv":    {ID: "r", Curves: []Curve{{Name: "c"}}},
		"r_rows.csv": {ID: "r", Rows: []Row{{Name: "row"}}},
		"r_t.csv":    {ID: "r", Tables: []Table{{Name: "t", Header: []string{"h"}}}},
		"r_s.csv":    {ID: "r", Series: []TimeSeries{{Name: "s"}}},
	} {
		dir := t.TempDir()
		if err := os.Symlink("/dev/full", filepath.Join(dir, file)); err != nil {
			t.Fatal(err)
		}
		if err := r.WriteCSV(dir); err == nil {
			t.Errorf("%s: WriteCSV returned nil on a full device", file)
		}
	}
}

func TestSanitize(t *testing.T) {
	if got := sanitize("a b/c()1"); got != "a_b_c__1" {
		t.Errorf("sanitize = %q", got)
	}
}

func TestAPIStreamHelperAgainstImmVariant(t *testing.T) {
	p := cost.Default()
	_, bwImm := APIStream(myriapi.SendImm, p, 128, 50)
	if bwImm > 3 {
		t.Errorf("API at 128B delivers %.2f MB/s; should be ~1", bwImm)
	}
}
