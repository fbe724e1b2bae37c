package bench

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"fm/internal/workload"
)

// TestShardSupport: each experiment accepts -shards up to its bound and
// rejects one past it, naming the bound and the reason.
func TestShardSupport(t *testing.T) {
	check := func(id string, opt Options, bound int, reason string) {
		t.Helper()
		e, _ := ByID(id)
		opt.Shards = bound
		if err := e.Validate(opt); err != nil {
			t.Fatalf("%s: -shards %d rejected: %v", id, bound, err)
		}
		opt.Shards = bound + 1
		err := e.Validate(opt)
		want := fmt.Sprintf("-shards %d: experiment %q supports -shards 1..%d: ", bound+1, id, bound)
		if err == nil || !strings.HasPrefix(err.Error(), want) || !strings.Contains(err.Error(), reason) {
			t.Fatalf("%s: -shards %d gave %v, want %q citing %q", id, bound+1, err, want, reason)
		}
	}

	// scale: one shard per leaf group, bounded by the smallest sweep
	// point — clos-64 on the default node list.
	opt := DefaultOptions()
	_, g64 := workload.Geometry(64)
	check("scale", opt, g64, "clos-64")
	// A trimmed node list moves the bound with it.
	opt.ScaleNodes = []int{16, 1024}
	_, g16 := workload.Geometry(16)
	check("scale", opt, g16, "clos-16")

	// faults: one Clos at FaultNodes, one shard per leaf group.
	opt = DefaultOptions()
	_, g32 := workload.Geometry(32)
	check("faults", opt, g32, "clos-32")
	opt.FaultNodes = 64
	check("faults", opt, g64, "clos-64")
	// The bound is the built Clos's: 9 requested nodes build clos-10 (5
	// leaf groups, not clos-9's 9) and 7 build clos-8 (4, not 7), so
	// -shards 9 and -shards 7 are rejected up front instead of
	// panicking mid-run.
	for _, c := range []struct{ req, built, groups int }{{9, 10, 5}, {7, 8, 4}} {
		opt.FaultNodes = c.req
		check("faults", opt, c.groups,
			fmt.Sprintf("clos-%d has %d leaf groups", c.built, c.groups))
	}

	// soak: the timeline always runs on the canonical single kernel, so
	// -shards > 1 is rejected rather than accepted and ignored.
	opt = DefaultOptions()
	check("soak", opt, 1, "single-kernel")
	// fabrics and patterns compare a crossbar and a line, neither of
	// which partitions, and every other experiment runs on one kernel.
	check("fabrics", opt, 1, "neither partitions")
	check("patterns", opt, 1, "neither partitions")
	for _, id := range []string{"fig3", "fig4", "fig7", "fig8", "fig9", "table4", "headline", "ablations", "mpi"} {
		check(id, opt, 1, "it runs every simulation on one kernel")
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
	if !strings.Contains(timed, "shard timing N=16 FM all-to-all:") ||
		!strings.Contains(timed, "shard timing N=32 FM all-to-all:") {
		t.Fatalf("ShardTiming report missing per-shard breakdown:\n%s", timed)
	}
	// The breakdown names the FM leg's pattern, whichever it is.
	opt.ScalePattern = "neighbor"
	timed = render(1)
	if !strings.Contains(timed, "shard timing N=16 FM neighbor:") ||
		!strings.Contains(timed, "shard timing N=32 FM neighbor:") {
		t.Fatalf("neighbor ShardTiming report mislabels the FM leg:\n%s", timed)
	}
}
