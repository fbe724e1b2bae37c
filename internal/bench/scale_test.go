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
}

// The default pattern must resolve to the historical all-to-all
// traffic — Scale's labels and volumes hang off it, and the
// byte-identity guarantee with pre-knob builds depends on it.
func TestScalePatternDefaultIsAllToAll(t *testing.T) {
	for _, name := range []string{"", "all-to-all"} {
		pat, desc, err := scalePattern(name)
		if err != nil {
			t.Fatalf("%q: %v", name, err)
		}
		if desc != "one all-to-all round" {
			t.Fatalf("%q: desc = %q", name, desc)
		}
		if got := pat.Gen(0, 4); len(got) != 3 {
			t.Fatalf("%q: Gen(0,4) = %v, want 3 sends", name, got)
		}
	}
}
