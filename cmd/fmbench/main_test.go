package main

import (
	"flag"
	"reflect"
	"strings"
	"testing"

	"fm/internal/bench"
	"fm/internal/metrics"
)

// Every documented invocation: CI, README, EXPERIMENTS.md and the
// verify skill. parse only validates, so none of these runs anything.
var documented = [][]string{
	// CI
	{"-experiment", "scale", "-scale-nodes", "16,32"},
	{"-experiment", "scale", "-scale-nodes", "16,32", "-shards", "1"},
	{"-experiment", "scale", "-scale-nodes", "16,32", "-shards", "2", "-workers", "1"},
	{"-experiment", "scale", "-scale-nodes", "16,32", "-shards", "2", "-workers", "8"},
	{"-experiment", "scale", "-scale-nodes", "4096", "-scale-pattern", "neighbor"},
	{"-experiment", "scale", "-scale-nodes", "4096", "-scale-pattern", "neighbor", "-workers", "4"},
	{"-experiment", "scale", "-scale-nodes", "4096", "-scale-pattern", "neighbor", "-shards", "2", "-workers", "1"},
	{"-experiment", "scale", "-scale-nodes", "4096", "-scale-pattern", "neighbor", "-shards", "2", "-workers", "4"},
	{"-experiment", "faults"},
	{"-experiment", "faults", "-workers", "4"},
	{"-experiment", "faults", "-shards", "2"},
	{"-experiment", "soak", "-soak-nodes", "16", "-soak-loads", "1,24", "-soak-horizon-us", "300", "-soak-window-us", "100"},
	{"-experiment", "soak", "-soak-nodes", "16", "-soak-loads", "1,24", "-soak-horizon-us", "300", "-soak-window-us", "100", "-workers", "4"},
	// README
	{},
	{"-experiment", "fig3,fig9"},
	{"-paper-exact"},
	{"-experiment", "fabrics", "-fabric-nodes", "128"},
	{"-experiment", "scale"},
	{"-experiment", "soak"},
	{"-list"},
	// EXPERIMENTS.md
	{"-experiment", "scale", "-scale-nodes", "64,256,1024"},
	{"-experiment", "scale", "-scale-nodes", "64,128,256,512,1024"},
	{"-experiment", "scale", "-scale-nodes", "8192", "-shards", "8", "-timing"},
	{"-experiment", "scale", "-scale-nodes", "16384", "-timing"},
	{"-experiment", "scale", "-scale-nodes", "16384", "-scale-pattern", "neighbor", "-timing"},
	{"-experiment", "faults", "-fault-plan", "switch 9 100 200; loss 35 74 147"},
	// verify skill
	{"-experiment", "fabrics", "-fabric-nodes", "6"},
	{"-experiment", "fabrics", "-fabric-nodes", "8"},
	{"-experiment", "fabrics", "-fabric-nodes", "64"},
	{"-experiment", "fabrics", "-fabric-nodes", "256"},
	{"-experiment", "fig8", "-packets", "400", "-rounds", "10"},
	{"-workers", "1"},
	{"-workers", "16"},
	{"-experiment", "fig3,table4,patterns", "-packets", "400", "-rounds", "10", "-pattern-nodes", "8", "-csv", "out"},
}

func TestParseAcceptsDocumentedInvocations(t *testing.T) {
	for _, args := range documented {
		if _, err := parse(args); err != nil {
			t.Errorf("%q rejected: %v", args, err)
		}
	}
}

// Every reject: each fails before anything runs, and the first line of
// its message names the flag and the reason.
func TestParseRejects(t *testing.T) {
	soakCI := []string{"-experiment", "soak", "-soak-nodes", "16", "-soak-loads", "1,24", "-soak-horizon-us", "300", "-soak-window-us", "100"}
	cases := []struct {
		args []string
		want string
	}{
		// Flags no selected experiment reads.
		{[]string{"-experiment", "headline", "-fault-plan", "switch 9 100 200"}, "-fault-plan is set but no selected experiment reads it (read by: faults, soak)"},
		{[]string{"-experiment", "fabrics", "-packets", "7"}, "-packets is set but no selected experiment reads it"},
		{[]string{"-experiment", "table4", "-rounds", "7"}, "-rounds is set but no selected experiment reads it"},
		{[]string{"-experiment", "headline", "-fabric-nodes", "8", "-scale-pattern", "neighbor", "-fault-seed", "7"}, "-fabric-nodes is set but no selected experiment reads it (read by: fabrics)"},
		{[]string{"-experiment", "headline", "-fault-seed", "7"}, "-fault-seed is set but no selected experiment reads it (read by: faults)"},
		{[]string{"-experiment", "fig3", "-soak-drain"}, "-soak-drain is set but no selected experiment reads it (read by: soak)"},
		{[]string{"-experiment", "headline", "-paper-exact", "-packets", "50"}, "-paper-exact and -packets both set"},
		// Counts that used to mean "default".
		{[]string{"-experiment", "fig3", "-packets", "-5"}, "-packets: want a positive integer"},
		{[]string{"-experiment", "fig3", "-packets", "0"}, "-packets: want a positive integer"},
		{[]string{"-experiment", "fabrics", "-fabric-nodes", "0"}, "-fabric-nodes: want a positive integer"},
		{[]string{"-experiment", "soak", "-soak-nodes", "0"}, "-soak-nodes: want a positive integer"},
		{[]string{"-experiment", "soak", "-soak-horizon-us", "0"}, "-soak-horizon-us: want a positive integer"},
		{[]string{"-shards", "0"}, "-shards: want a positive integer"},
		{[]string{"-experiment", "scale", "-scale-nodes", ""}, `-scale-nodes: bad entry ""`},
		{[]string{"-experiment", "scale", "-scale-nodes", "16", "-scale-pattern", ""}, `unknown -scale-pattern ""`},
		{[]string{"-experiment", "scale", "-scale-nodes", "16,1"}, "-scale-nodes 1: a sweep point needs at least 2 nodes"},
		{[]string{"-experiment", "soak", "-soak-loads", "8,-1"}, "-soak-loads entry -1: offered load must be positive"},
		// Shard bounds and Clos sizes.
		{[]string{"-experiment", "scale", "-scale-nodes", "64,16", "-shards", "5"}, `-shards 5: experiment "scale" supports -shards 1..4: 2-level Clos sweep shards one leaf group per shard, and the smallest point (clos-16)`},
		{[]string{"-experiment", "faults", "-fault-nodes", "9", "-shards", "9"}, `-shards 9: experiment "faults" supports -shards 1..5`},
		{[]string{"-experiment", "faults", "-fault-nodes", "7", "-shards", "7"}, `-shards 7: experiment "faults" supports -shards 1..4`},
		{[]string{"-experiment", "scale", "-scale-nodes", "4099"}, "-scale-nodes 4099: clos("},
		{[]string{"-experiment", "faults", "-fault-nodes", "65521"}, "-fault-nodes 65522: clos("},
		{[]string{"-experiment", "fabrics", "-fabric-nodes", "4099"}, "-fabric-nodes 4100: clos("},
		{[]string{"-experiment", "patterns", "-pattern-nodes", "4099"}, "-pattern-nodes 4100: clos("},
		{[]string{"-experiment", "fabrics", "-fabric-nodes", "100000000000"}, "-fabric-nodes 100000000000: crossbar: "},
		{[]string{"-experiment", "patterns", "-pattern-nodes", "131072"}, "-pattern-nodes 131072: crossbar: "},
		{append(soakCI, "-shards", "2"), `-shards 2: experiment "soak" supports -shards 1..1: the soak timeline is computed on the canonical single-kernel engine`},
		{[]string{"-experiment", "fabrics", "-shards", "2"}, `-shards 2: experiment "fabrics" supports -shards 1..1: compares crossbar, line and Clos fabrics`},
		{[]string{"-experiment", "scale,fig3", "-scale-nodes", "16", "-shards", "2"}, `-shards 2: experiment "fig3" supports -shards 1..1: it runs every simulation on one kernel`},
		// Everything else on the command line.
		{[]string{"-experiment", "fig3,nope"}, `unknown experiment "nope"`},
		{[]string{"-experiment", "fig3", "extra"}, `unexpected argument "extra"`},
		{[]string{"-bogus"}, "flag provided but not defined: -bogus"},
	}
	for _, c := range cases {
		_, err := parse(c.args)
		if err == nil {
			t.Errorf("%q accepted, want %q", c.args, c.want)
			continue
		}
		if first, _, _ := strings.Cut(err.Error(), "\n"); !strings.Contains(first, c.want) {
			t.Errorf("%q: first line %q, want %q", c.args, first, c.want)
		}
	}
}

func TestRunExitCodes(t *testing.T) {
	if code := run([]string{"-h"}); code != 0 {
		t.Errorf("-h exits %d, want 0", code)
	}
	if code := run([]string{"-experiment", "fig3", "-packets", "0"}); code != 2 {
		t.Errorf("a reject exits %d, want 2", code)
	}
}

func TestParseBindsOptions(t *testing.T) {
	c, err := parse([]string{"-experiment", "soak,all,fig3", "-paper-exact", "-soak-loads", "1, 24", "-timing"})
	if err != nil {
		t.Fatal(err)
	}
	if c.opt.Packets != metrics.PaperStreamPackets {
		t.Errorf("-paper-exact: Packets = %d", c.opt.Packets)
	}
	if !reflect.DeepEqual(c.opt.SoakLoads, []float64{1, 24}) {
		t.Errorf("-soak-loads 1, 24: SoakLoads = %v", c.opt.SoakLoads)
	}
	if !c.opt.ShardTiming {
		t.Error("-timing did not turn on ShardTiming")
	}
	var ids []string
	for _, e := range c.exps {
		ids = append(ids, e.ID)
	}
	want := []string{"soak"}
	for _, e := range bench.All() {
		want = append(want, e.ID)
	}
	if !reflect.DeepEqual(ids, want) {
		t.Errorf("selected %v, want %v (all expanded in place, fig3 once)", ids, want)
	}

	c, err = parse(nil)
	if err != nil {
		t.Fatal(err)
	}
	if d := bench.DefaultOptions(); !reflect.DeepEqual(c.opt, d) {
		t.Errorf("no flags: options %+v, want DefaultOptions %+v", c.opt, d)
	}
}

// The ownership lists and the flag set cannot drift apart: every flag
// an experiment lists exists, and every flag outside the common set is
// listed by some experiment (so parse can reject it when none reads it).
func TestFlagsMatchRegistry(t *testing.T) {
	r := readers()
	fs := newFlagSet(&config{opt: bench.DefaultOptions()}, r)
	for name, ids := range r {
		if fs.Lookup(name) == nil {
			t.Errorf("%v list -%s, which fmbench does not define", ids, name)
		}
	}
	common := map[string]bool{"experiment": true, "workers": true, "shards": true, "csv": true,
		"list": true, "timing": true, "cpuprofile": true, "memprofile": true}
	fs.VisitAll(func(f *flag.Flag) {
		if !common[f.Name] && r[f.Name] == nil {
			t.Errorf("-%s is neither common nor listed by any experiment", f.Name)
		}
	})
}
