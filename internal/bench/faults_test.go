package bench

import (
	"bytes"
	"strings"
	"testing"
)

// renderFaults runs the faults experiment at the given harness settings
// and returns the rendered report.
func renderFaults(opt Options, workers, shards int) string {
	opt.Workers = workers
	opt.Shards = shards
	var buf bytes.Buffer
	Faults(opt).WriteText(&buf)
	return buf.String()
}

// TestFaultsDeterminismPin is the resilience suite's determinism
// regression pin, the same idiom as the sharded scale smoke: the faults
// report must be byte-identical across worker counts, across shard
// counts (1, 2, 4 — the fault toggles replay on every replica and the
// report prints only shard-invariant quantities), and across repeated
// runs. Any timing- or scheduling-dependent value leaking into the
// report breaks this test.
func TestFaultsDeterminismPin(t *testing.T) {
	opt := DefaultOptions()
	base := renderFaults(opt, 1, 1)
	if w4 := renderFaults(opt, 4, 1); w4 != base {
		t.Fatalf("faults output depends on worker count:\n--- workers=1 ---\n%s\n--- workers=4 ---\n%s", base, w4)
	}
	if s2 := renderFaults(opt, 1, 2); s2 != base {
		t.Fatalf("faults output depends on shard count:\n--- shards=1 ---\n%s\n--- shards=2 ---\n%s", base, s2)
	}
	if s4 := renderFaults(opt, 4, 4); s4 != base {
		t.Fatalf("faults output at workers=4 shards=4 diverged:\n--- base ---\n%s\n--- w4s4 ---\n%s", base, s4)
	}
	if again := renderFaults(opt, 1, 1); again != base {
		t.Fatal("faults output not reproducible across runs")
	}

	// The pinned run must actually exercise the machinery: faults
	// injected, everything delivered, retransmits observed.
	if got := kvValue(t, base, "fault events injected"); got != "5" {
		t.Fatalf("default plan injected %s events, want 5:\n%s", got, base)
	}
	if got := kvValue(t, base, "all-to-all delivered under faults"); got != "992/992" {
		t.Fatalf("all-to-all under faults delivered %s, want 992/992:\n%s", got, base)
	}
	if got := kvValue(t, base, "all-to-all retransmits"); got == "0" {
		t.Fatalf("fault plan drew no retransmits:\n%s", base)
	}
}

// kvValue extracts the measured column of the named KV line.
func kvValue(t *testing.T, out, metric string) string {
	t.Helper()
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, metric+" ") {
			f := strings.Fields(strings.TrimPrefix(line, metric))
			if len(f) < 2 {
				t.Fatalf("malformed KV line %q", line)
			}
			return f[0]
		}
	}
	t.Fatalf("no KV line for %q in:\n%s", metric, out)
	return ""
}

// TestFaultsEmptyPlan: seed 0 is the clean baseline — nothing injected,
// degraded bisection identical to clean, zero recovery time.
func TestFaultsEmptyPlan(t *testing.T) {
	opt := DefaultOptions()
	opt.FaultSeed = 0
	out := renderFaults(opt, 2, 1)
	if !strings.Contains(out, "empty fault plan (-fault-seed 0)") {
		t.Errorf("empty-plan note missing:\n%s", out)
	}
	for metric, want := range map[string]string{
		"fault events injected":       "0",
		"degraded/clean bisection BW": "100.0%",
		"recovery time (us)":          "0.0",
	} {
		if got := kvValue(t, out, metric); got != want {
			t.Errorf("empty plan: %s = %s, want %s", metric, got, want)
		}
	}
	if strings.Contains(out, "-- fault plan --") {
		t.Errorf("empty plan printed a fault-plan table:\n%s", out)
	}
}

// TestFaultsHandWrittenPlan: -fault-plan overrides the seed and shows up
// verbatim in the notes.
func TestFaultsHandWrittenPlan(t *testing.T) {
	opt := DefaultOptions()
	opt.FaultPlan = "switch 9 106 205"
	out := renderFaults(opt, 1, 1)
	if !strings.Contains(out, "hand-written fault plan (-fault-plan): switch 9 106 205") {
		t.Errorf("hand-written plan not echoed:\n%s", out)
	}
	if got := kvValue(t, out, "component downs (link/switch/node)"); got != "0/1/0" {
		t.Errorf("single switch outage: downs = %s, want 0/1/0", got)
	}
}

// TestValidateFaults: a malformed or out-of-range plan is rejected with
// the reason, before anything runs (the fmbench pre-flight).
func TestValidateFaults(t *testing.T) {
	opt := DefaultOptions()
	if err := ValidateFaults(opt); err != nil {
		t.Fatalf("default options rejected: %v", err)
	}
	opt.FaultPlan = "switch 9 106"
	if err := ValidateFaults(opt); err == nil || !strings.Contains(err.Error(), "want") {
		t.Errorf("truncated event accepted (err %v)", err)
	}
	opt.FaultPlan = "switch 9999 10 20"
	if err := ValidateFaults(opt); err == nil || !strings.Contains(err.Error(), "out of range") {
		t.Errorf("out-of-range switch accepted (err %v)", err)
	}
	opt.FaultPlan = "link 0 10 9000"
	if err := ValidateFaults(opt); err == nil || !strings.Contains(err.Error(), "horizon") {
		t.Errorf("never-closing window accepted (err %v)", err)
	}
	opt = DefaultOptions()
	opt.FaultNodes = 1e11
	if err := ValidateFaults(opt); err == nil || !strings.Contains(err.Error(), "packed-route limit") {
		t.Errorf("unbuildable Clos accepted (err %v)", err)
	}
	// Twice a prime derives one leaf per two nodes and as many spines:
	// 2042 nodes build 2.09 M switch ports, and 65521 (built as 65522)
	// 2.1 billion. The bound rejects both before the fabric is built.
	for _, n := range []int{2042, 65521} {
		opt.FaultNodes = n
		if err := ValidateFaults(opt); err == nil || !strings.Contains(err.Error(), "switch ports, over the") {
			t.Errorf("-fault-nodes %d: err %v, want the switch-port bound", n, err)
		}
	}
}
