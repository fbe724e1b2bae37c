package bench

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
)

// ValidateScale is fmbench's pre-run gate for the sweep: a bad pattern
// name or an unbuildable node count must be rejected up front, never
// after hours-long earlier points.
func TestValidateScale(t *testing.T) {
	ok := DefaultOptions()
	if err := ValidateScale(ok); err != nil {
		t.Fatalf("default options rejected: %v", err)
	}
	ok.ScalePattern = "neighbor"
	ok.ScaleNodes = []int{64, 16384}
	if err := ValidateScale(ok); err != nil {
		t.Fatalf("neighbor at 64,16384 rejected: %v", err)
	}

	bad := DefaultOptions()
	bad.ScalePattern = "bogus"
	if err := ValidateScale(bad); err == nil || !strings.Contains(err.Error(), "-scale-pattern") {
		t.Fatalf("bogus pattern: err = %v", err)
	}

	bad = DefaultOptions()
	bad.ScaleNodes = []int{64, 1}
	err := ValidateScale(bad)
	if err == nil || !strings.Contains(err.Error(), "-scale-nodes 1") {
		t.Fatalf("node count 1: err = %v", err)
	}

	bad.ScaleNodes = []int{64, 1 << 62}
	if err := ValidateScale(bad); err == nil || !strings.Contains(err.Error(), "packed-route limit") {
		t.Fatalf("node count 2^62: err = %v", err)
	}

	bad.ScaleNodes = nil
	if err := ValidateScale(bad); err == nil || !strings.Contains(err.Error(), "-scale-nodes is empty") {
		t.Fatalf("no sweep points: err = %v", err)
	}

	// A prime count derives a 4099-spine x 4099-leaf Clos of 4100-port
	// switches, 33.6 M ports; the bound stops it while 262,144 nodes
	// (1,024 switches of 1,024 ports) still pass.
	bad.ScaleNodes = []int{64, 4099}
	if err := ValidateScale(bad); err == nil || !strings.Contains(err.Error(), "-scale-nodes 4099") ||
		!strings.Contains(err.Error(), "33611800 switch ports") {
		t.Fatalf("node count 4099: err = %v", err)
	}
	ok.ScaleNodes = []int{1 << 18}
	if err := ValidateScale(ok); err != nil {
		t.Fatalf("262144 nodes (2^20 switch ports) rejected: %v", err)
	}
}

// The default pattern must resolve to the historical all-to-all
// traffic — Scale's labels and volumes hang off it, and the
// byte-identity guarantee with pre-knob builds depends on it.
func TestScalePatternDefaultIsAllToAll(t *testing.T) {
	name := DefaultOptions().ScalePattern
	if name != "all-to-all" {
		t.Fatalf("default ScalePattern = %q, want all-to-all", name)
	}
	pat, desc, err := scalePattern(name)
	if err != nil {
		t.Fatal(err)
	}
	if desc != "one all-to-all round" {
		t.Fatalf("desc = %q", desc)
	}
	if got := pat.Gen(0, 4); len(got) != 3 {
		t.Fatalf("Gen(0,4) = %v, want 3 sends", got)
	}
}

// TestScaleSharded pins the sharded scale experiment's invariants: the
// report is identical at any worker count and across repeated runs, it
// says it ran sharded, and -timing's per-shard breakdown appears only
// when asked for.
func TestScaleSharded(t *testing.T) {
	opt := DefaultOptions()
	opt.ScaleNodes = []int{16, 32}
	opt.Shards = 2
	render := func(workers int) string {
		opt.Workers = workers
		var buf bytes.Buffer
		Scale(opt).WriteText(&buf)
		return buf.String()
	}
	serial := render(1)
	if parallel := render(6); parallel != serial {
		t.Fatalf("sharded scale output depends on worker count:\n--- serial ---\n%s\n--- parallel ---\n%s",
			serial, parallel)
	}
	if again := render(1); again != serial {
		t.Fatal("sharded scale output not reproducible across runs")
	}
	if !strings.Contains(serial, "sharded run: every simulation split across 2 shard kernels") {
		t.Fatalf("sharded report missing the shard note:\n%s", serial)
	}
	if strings.Contains(serial, "shard timing") {
		t.Fatalf("per-shard timing printed without ShardTiming:\n%s", serial)
	}

	opt.ShardTiming = true
	timed := render(1)
	for _, n := range []int{16, 32} {
		for _, leg := range []string{"raw all-to-all", "raw bisection", "FM all-to-all"} {
			if want := fmt.Sprintf("shard timing N=%d %s:", n, leg); !strings.Contains(timed, want) {
				t.Fatalf("ShardTiming report missing %q:\n%s", want, timed)
			}
		}
	}
	// The breakdown names the FM leg's pattern, whichever it is.
	opt.ScalePattern = "neighbor"
	timed = render(1)
	if !strings.Contains(timed, "shard timing N=16 FM neighbor:") ||
		!strings.Contains(timed, "shard timing N=32 FM neighbor:") {
		t.Fatalf("neighbor ShardTiming report mislabels the FM leg:\n%s", timed)
	}
}
