package bench

import (
	"math"
	"testing"

	"fm/internal/cost"
	"fm/internal/sim"
	"fm/internal/workload"
)

// The fmbench pre-flight validators take flag values straight from the
// command line, so for every input each must return nil or an error and
// never panic. Each seed corpus includes the inputs that panic when a
// validator misses them, mid-run or inside the validator itself; plain
// `go test` runs them.

// maxFuzzNodes bounds the node counts handed to a validator that builds
// the fabric it checks. checkClos caps what a count may build at 2^20
// switch ports, but a build near that cap still takes about a second,
// far too slow per fuzz input. From 1<<34 nodes every geometry has at
// least 2^17 leaves, past the packed-route port limit, so such counts
// are rejected before anything is built and pass through unchanged.
const maxFuzzNodes = 64

func fuzzNodes(n int) int {
	if n > maxFuzzNodes && n < 1<<34 {
		return n % maxFuzzNodes
	}
	return n
}

func FuzzValidateScale(f *testing.F) {
	f.Add("", 64, 1024)
	f.Add("neighbor", 64, 16384)
	f.Add("bogus", 64, 64)
	f.Add("", 64, 1)
	f.Add("", 4099, 64)
	f.Add("", 4611686018427387904, 64) // 2^62: the square of workload.Geometry's candidate group size overflows int
	f.Add("all-to-all", math.MaxInt, math.MinInt)
	f.Fuzz(func(t *testing.T, pattern string, n1, n2 int) {
		opt := DefaultOptions()
		opt.ScalePattern = pattern
		opt.ScaleNodes = []int{n1, n2}
		_ = ValidateScale(opt)
	})
}

func FuzzValidateSoak(f *testing.F) {
	d := DefaultOptions()
	add := func(loads [2]float64, horizonUs, windowUs, nodes int, plan string) {
		f.Add(d.SoakSource, d.SoakPattern, loads[0], loads[1], horizonUs, windowUs, nodes, plan)
	}
	add([2]float64{8, 24}, d.SoakHorizonUs, d.SoakWindowUs, d.SoakNodes, "")
	add([2]float64{8, 24}, d.SoakHorizonUs, d.SoakWindowUs, d.SoakNodes, "switch 9 100 200; loss 35 74 147")
	add([2]float64{8, math.NaN()}, d.SoakHorizonUs, d.SoakWindowUs, d.SoakNodes, "")
	add([2]float64{8, math.Inf(1)}, d.SoakHorizonUs, d.SoakWindowUs, d.SoakNodes, "")
	add([2]float64{8, 1e-300}, d.SoakHorizonUs, d.SoakWindowUs, d.SoakNodes, "")
	add([2]float64{8, 1e300}, d.SoakHorizonUs, d.SoakWindowUs, d.SoakNodes, "")
	add([2]float64{8, 24}, 10000000000000, 10000000000000, d.SoakNodes, "")
	add([2]float64{8, 24}, d.SoakHorizonUs, d.SoakWindowUs, 100000000000, "")
	add([2]float64{8, 24}, d.SoakHorizonUs, d.SoakWindowUs, 100000000000, "link 0 10 20")
	f.Fuzz(func(t *testing.T, source, pattern string, l1, l2 float64, horizonUs, windowUs, nodes int, plan string) {
		opt := DefaultOptions()
		opt.SoakSource, opt.SoakPattern = source, pattern
		opt.SoakLoads = []float64{l1, l2}
		opt.SoakHorizonUs, opt.SoakWindowUs = horizonUs, windowUs
		opt.SoakNodes = fuzzNodes(nodes)
		opt.FaultPlan = plan
		if ValidateSoak(opt) != nil {
			return
		}
		// Accepted: the arrival sources must get what workload.checkSource
		// demands, or the run panics after validation said yes.
		for _, l := range opt.SoakLoads {
			if soakGap(l) <= 0 {
				t.Fatalf("load %g accepted with interarrival gap %v", l, soakGap(l))
			}
		}
		if soakSource(opt, nil, l1).SourceHorizon() <= 0 {
			t.Fatalf("horizon %dus accepted but not positive in picoseconds", horizonUs)
		}
	})
}

func FuzzValidateFaults(f *testing.F) {
	f.Add(uint64(1995), "", 0)
	f.Add(uint64(0), "", 64)
	f.Add(uint64(7), "switch 9 100 200; loss 35 74 147", 32)
	f.Add(uint64(1995), "switch 9 106", 0)
	f.Add(uint64(1995), "link 0 10 9000", 0)
	f.Add(uint64(1995), "", 100000000000)
	f.Add(uint64(1995), "", math.MaxInt)
	f.Fuzz(func(t *testing.T, seed uint64, plan string, nodes int) {
		opt := DefaultOptions()
		opt.FaultSeed, opt.FaultPlan = seed, plan
		opt.FaultNodes = fuzzNodes(nodes)
		_ = ValidateFaults(opt)
	})
}

// FuzzShardSupport: every experiment bounds -shards. At any node counts
// Validate rejects -shards MaxInt with a reason, and it checks the bound
// before it builds a fabric, so raw counts cost nothing. At folded
// counts (fuzzNodes), a -shards value Validate accepts never fails
// mid-run: each Clos scale or faults builds partitions at it, and every
// other experiment accepts only 1.
func FuzzShardSupport(f *testing.F) {
	for _, id := range []string{"scale", "faults", "soak", "fabrics", "fig3"} {
		f.Add(id, 64, 1024, 0, 2)
		f.Add(id, 16, 64, 32, 2)
	}
	f.Add("scale", 4611686018427387904, 64, 0, 1)
	f.Add("faults", 64, 64, 4611686018427387904, 1)
	f.Add("faults", 64, 64, 100000000000, 1)
	f.Add("scale", math.MinInt, 0, math.MaxInt, 1)
	f.Add("faults", 64, 64, 9, 9) // builds clos-10: 5 leaf groups, not 9
	f.Add("faults", 64, 64, 7, 7) // builds clos-8: 4 leaf groups, not 7
	f.Add("scale", 9, 6, 0, 3)
	f.Add("patterns", 4099, 131072, 0, 1)
	f.Fuzz(func(t *testing.T, id string, n1, n2, nf, shards int) {
		e, ok := ByID(id)
		if !ok {
			return
		}
		opt := DefaultOptions()
		setNodes := func(n1, n2, nf int) {
			opt.ScaleNodes = []int{n1, n2}
			opt.FabricNodes, opt.PatternNodes = n1, n2
			opt.FaultNodes, opt.SoakNodes = nf, nf
		}
		setNodes(n1, n2, nf)
		opt.Shards = math.MaxInt
		if err := e.Validate(opt); err == nil || err.Error() == "" {
			t.Fatalf("%s: -shards %d accepted, or rejected without a reason", id, opt.Shards)
		}

		setNodes(fuzzNodes(n1), fuzzNodes(n2), fuzzNodes(nf))
		opt.Shards = max(shards, 1)
		if e.Validate(opt) != nil {
			return
		}
		var built []int
		switch id {
		case "scale":
			built = opt.ScaleNodes
		case "faults":
			built = []int{faultNodes(opt)}
		default:
			if opt.Shards != 1 {
				t.Fatalf("%s: Validate accepts -shards %d, but the experiment runs on one kernel", id, opt.Shards)
			}
		}
		for _, n := range built {
			topo := workload.ClosSpec(n).Build(sim.NewKernel(), cost.Default()).Topology()
			if _, err := topo.Partition(opt.Shards); err != nil {
				t.Fatalf("%s: Validate accepts -shards %d, but clos-%d does not partition: %v", id, opt.Shards, n, err)
			}
		}
	})
}
