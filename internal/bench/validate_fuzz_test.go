package bench

import (
	"math"
	"testing"
)

// The fmbench pre-flight validators take flag values straight from the
// command line, so for every input each must return nil or an error and
// never panic. Each seed corpus includes the inputs that panic when a
// validator misses them, mid-run or inside the validator itself; plain
// `go test` runs them.

// maxFuzzNodes bounds the node counts handed to a validator that builds
// the fabric it checks. A count whose Clos geometry passes the check is
// built, and a prime count derives an N-spine x N-leaf Clos, so an
// uncapped count could build billions of switch ports. From 1<<34 nodes
// every geometry has at least 2^17 leaves, past the packed-route port
// limit, so such counts are rejected before anything is built and pass
// through unchanged.
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

func FuzzShardSupport(f *testing.F) {
	for _, id := range []string{"scale", "faults", "soak", "fabrics", "fig3"} {
		f.Add(id, 64, 1024, 0)
	}
	f.Add("scale", 4611686018427387904, 64, 0)
	f.Add("faults", 64, 64, 4611686018427387904)
	f.Add("faults", 64, 64, 100000000000)
	f.Add("scale", math.MinInt, 0, math.MaxInt)
	f.Fuzz(func(t *testing.T, id string, n1, n2, faultNodes int) {
		opt := DefaultOptions()
		opt.ScaleNodes = []int{n1, n2}
		opt.FaultNodes = faultNodes
		if _, detail := ShardSupport(id, opt); detail == "" {
			t.Fatalf("ShardSupport(%q) gave no reason for its bound", id)
		}
	})
}
