package bench

import (
	"bytes"
	"strings"
	"testing"

	"fm/internal/workload"
)

func TestShardSupport(t *testing.T) {
	opt := DefaultOptions()

	// scale: one shard per leaf group, bounded by the smallest sweep
	// point — clos-64 on the default node list.
	_, g64 := workload.Geometry(64)
	if n, detail := ShardSupport("scale", opt); n != g64 || !strings.Contains(detail, "clos-64") {
		t.Fatalf("ShardSupport(scale) = %d %q, want %d naming clos-64", n, detail, g64)
	}
	// A trimmed node list moves the bound with it.
	opt.ScaleNodes = []int{16, 1024}
	_, g16 := workload.Geometry(16)
	if n, detail := ShardSupport("scale", opt); n != g16 || !strings.Contains(detail, "clos-16") {
		t.Fatalf("ShardSupport(scale, 16..1024) = %d %q, want %d naming clos-16", n, detail, g16)
	}

	// faults: one Clos at FaultNodes, one shard per leaf group.
	opt = DefaultOptions()
	_, g32 := workload.Geometry(32)
	if n, detail := ShardSupport("faults", opt); n != g32 || !strings.Contains(detail, "clos-32") {
		t.Fatalf("ShardSupport(faults) = %d %q, want %d naming clos-32", n, detail, g32)
	}
	opt.FaultNodes = 64
	if n, _ := ShardSupport("faults", opt); n != g64 {
		t.Fatalf("ShardSupport(faults, 64 nodes) = %d, want %d", n, g64)
	}

	// soak: the timeline always runs on the canonical single kernel, so
	// -shards > 1 is rejected rather than accepted and ignored.
	opt = DefaultOptions()
	if n, detail := ShardSupport("soak", opt); n != 1 || !strings.Contains(detail, "single-kernel") {
		t.Fatalf("ShardSupport(soak) = %d %q, want 1 citing the single-kernel engine", n, detail)
	}

	// Everything else is single-kernel only, with a reason to print.
	for _, id := range []string{"fig3", "fig8", "table4", "headline", "ablations", "fabrics", "patterns", "mpi"} {
		if n, detail := ShardSupport(id, opt); n != 1 || detail == "" {
			t.Fatalf("ShardSupport(%s) = %d %q, want 1 with a reason", id, n, detail)
		}
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
