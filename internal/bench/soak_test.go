package bench

import (
	"bytes"
	"math"
	"strconv"
	"strings"
	"testing"
)

// soakTestOptions is a small, fast soak configuration: a clos-16, a
// short horizon, and one load on each side of the knee.
func soakTestOptions() Options {
	opt := DefaultOptions()
	opt.SoakNodes = 16
	opt.SoakLoads = []float64{1, 24}
	opt.SoakHorizonUs = 300
	opt.SoakWindowUs = 100
	return opt
}

// renderSoak runs the soak experiment at the given harness settings and
// returns the rendered report.
func renderSoak(opt Options, workers int) string {
	opt.Workers = workers
	var buf bytes.Buffer
	Soak(opt).WriteText(&buf)
	return buf.String()
}

// TestSoakDeterminismPin is the soak experiment's determinism
// regression pin, the same idiom as the faults pin: the report must be
// byte-identical across worker counts and across repeated runs (the
// timeline always runs on the canonical single-kernel engine, so
// -shards cannot enter the computation at all), and the pinned run must
// actually show the open-loop signature — an overloaded point whose
// backlog and windowed p99 dwarf the underloaded point's.
func TestSoakDeterminismPin(t *testing.T) {
	opt := soakTestOptions()
	base := renderSoak(opt, 1)
	if w4 := renderSoak(opt, 4); w4 != base {
		t.Fatalf("soak output depends on worker count:\n--- workers=1 ---\n%s\n--- workers=4 ---\n%s", base, w4)
	}
	if again := renderSoak(opt, 1); again != base {
		t.Fatal("soak output not reproducible across runs")
	}

	rows := kneeRows(t, base)
	if len(rows) != 2 {
		t.Fatalf("knee table has %d rows, want 2:\n%s", len(rows), base)
	}
	light, heavy := rows[0], rows[1]
	// backlog@bell (column 7) grows without bound past the knee.
	if lb, hb := atoiCol(t, light, 6), atoiCol(t, heavy, 6); hb < 10*lb+10 {
		t.Fatalf("overloaded backlog %d not >> underloaded %d:\n%s", hb, lb, base)
	}
	// p99 (column 5) blows up past the knee.
	if lp, hp := atofCol(t, light, 4), atofCol(t, heavy, 4); hp < 4*lp {
		t.Fatalf("overloaded p99 %.1fus not >> underloaded %.1fus:\n%s", hp, lp, base)
	}
	for _, want := range []string{
		"-- offered 1 MB/s per node (poisson:uniform-random) (100us windows) --",
		"-- offered 24 MB/s per node (poisson:uniform-random) (100us windows) --",
		"termination: horizon",
		"canonical single-kernel engine",
	} {
		if !strings.Contains(base, want) {
			t.Fatalf("soak report missing %q:\n%s", want, base)
		}
	}
}

// TestSoakDrainMode: -soak-drain reports the timeline through
// quiescence, so the overloaded point's series runs past the horizon.
func TestSoakDrainMode(t *testing.T) {
	opt := soakTestOptions()
	opt.SoakLoads = []float64{24}
	opt.SoakDrain = true
	out := renderSoak(opt, 1)
	if !strings.Contains(out, "termination: drain") {
		t.Fatalf("drain mode not reported:\n%s", out)
	}
	// Horizon is 300us at 100us windows: a clipped series would end at
	// t=200; an overloaded drain must extend past the bell.
	if !strings.Contains(out, "\n     300 ") {
		t.Fatalf("drain-mode series does not extend past the horizon:\n%s", out)
	}
}

// TestValidateSoak: every bad -soak-* combination is rejected with the
// reason, before anything runs (the fmbench pre-flight).
func TestValidateSoak(t *testing.T) {
	if err := ValidateSoak(DefaultOptions()); err != nil {
		t.Fatalf("default options rejected: %v", err)
	}
	cases := []struct {
		name string
		mut  func(*Options)
		want string
	}{
		{"bad source", func(o *Options) { o.SoakSource = "bursty" }, "-soak-source"},
		{"bad pattern", func(o *Options) { o.SoakPattern = "zigzag" }, "-soak-pattern"},
		{"broadcast base", func(o *Options) { o.SoakPattern = "broadcast" },
			"(valid: all-to-all, bisection, uniform-random, tornado, incast, neighbor)"},
		{"no loads", func(o *Options) { o.SoakLoads = nil }, "-soak-loads"},
		{"negative load", func(o *Options) { o.SoakLoads = []float64{8, -1} }, "positive"},
		{"NaN load", func(o *Options) { o.SoakLoads = []float64{8, math.NaN()} }, "finite number of picoseconds"},
		{"infinite load", func(o *Options) { o.SoakLoads = []float64{math.Inf(1)} }, "finite number of picoseconds"},
		{"gap overflows", func(o *Options) { o.SoakLoads = []float64{1e-300} }, "finite number of picoseconds"},
		{"gap truncates to zero", func(o *Options) { o.SoakLoads = []float64{1e300} }, "finite number of picoseconds"},
		{"horizon overflows", func(o *Options) { o.SoakHorizonUs, o.SoakWindowUs = 1e13, 1e13 }, "overflows"},
		{"unbuildable clos", func(o *Options) { o.SoakNodes = 1e11 }, "-soak-nodes 100000000000"},
		{"clos past the port bound", func(o *Options) { o.SoakNodes = 4099 }, "33611800 switch ports, over the"},
		{"zero horizon", func(o *Options) { o.SoakHorizonUs = 0 }, "-soak-horizon-us"},
		{"zero window", func(o *Options) { o.SoakWindowUs = 0 }, "-soak-window-us"},
		{"window > horizon", func(o *Options) { o.SoakWindowUs = 2000 }, "at least one full window"},
		{"bad fault plan", func(o *Options) { o.FaultPlan = "switch 9" }, "want"},
		{"fault index range", func(o *Options) { o.FaultPlan = "switch 9999 10 20" }, "out of range"},
	}
	for _, c := range cases {
		opt := DefaultOptions()
		c.mut(&opt)
		if err := ValidateSoak(opt); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: err %v, want mention of %q", c.name, err, c.want)
		}
	}
}

// TestSoakFaultOverlay: an explicit -fault-plan applies to every load
// point and draws retransmits into the windows; the faults experiment's
// seed default must not leak in.
func TestSoakFaultOverlay(t *testing.T) {
	opt := soakTestOptions()
	opt.SoakLoads = []float64{2}
	clean := renderSoak(opt, 1)
	if strings.Contains(clean, "fault plan overlaid") {
		t.Fatalf("fault note printed without a plan:\n%s", clean)
	}
	opt.FaultPlan = "link 1 50 120"
	faulted := renderSoak(opt, 1)
	if !strings.Contains(faulted, "fault plan overlaid on every load point") {
		t.Fatalf("fault note missing:\n%s", faulted)
	}
	if faulted == clean {
		t.Fatal("fault plan had no effect on the soak report")
	}
}

// kneeRows returns the data rows of the offered-load ladder table.
func kneeRows(t *testing.T, out string) []string {
	t.Helper()
	lines := strings.Split(out, "\n")
	for i, line := range lines {
		if strings.Contains(line, "-- offered-load ladder --") {
			var rows []string
			for _, row := range lines[i+2:] {
				if strings.TrimSpace(row) == "" {
					return rows
				}
				rows = append(rows, row)
			}
		}
	}
	t.Fatalf("no offered-load ladder in:\n%s", out)
	return nil
}

func atoiCol(t *testing.T, row string, col int) int {
	t.Helper()
	f := strings.Fields(row)
	if col >= len(f) {
		t.Fatalf("row %q has no column %d", row, col)
	}
	n, err := strconv.Atoi(f[col])
	if err != nil {
		t.Fatalf("column %d of %q: %v", col, row, err)
	}
	return n
}

func atofCol(t *testing.T, row string, col int) float64 {
	t.Helper()
	f := strings.Fields(row)
	if col >= len(f) {
		t.Fatalf("row %q has no column %d", row, col)
	}
	v, err := strconv.ParseFloat(f[col], 64)
	if err != nil {
		t.Fatalf("column %d of %q: %v", col, row, err)
	}
	return v
}
