package bench

import (
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
