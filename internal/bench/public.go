package bench

import (
	"fm/internal/core"
	"fm/internal/cost"
	"fm/internal/metrics"
	"fm/internal/myriapi"
	"fm/internal/sim"
	"fm/internal/workload"
)

// Single-point measurement helpers for the root hot-path benchmarks
// (bench_test.go) and the benchmark module's cross-checks (perfbench):
// each call runs one fresh, deterministic simulation and returns the
// paper-style result.

// LANaiStream measures LANai-to-LANai bandwidth (Fig. 3) at one size.
func LANaiStream(p *cost.Params, streamed bool, size, packets int) metrics.BWPoint {
	return lanaiStreamPoint(p, streamed, size, packets)
}

// FMStream measures host-to-host bandwidth through an FM configuration.
func FMStream(cfg core.Config, p *cost.Params, size, packets int) (sim.Duration, float64) {
	elapsed, bw, err := metrics.Stream(fmMaker(cfg, p)(size), size, packets)
	if err != nil {
		panic(err)
	}
	return elapsed, bw
}

// APIStream measures bandwidth through the Myrinet API comparator.
func APIStream(v myriapi.Variant, p *cost.Params, size, packets int) (sim.Duration, float64) {
	elapsed, bw, err := metrics.Stream(apiMaker(v, p)(size), size, packets)
	if err != nil {
		panic(err)
	}
	return elapsed, bw
}

// FaultDrive runs the faults experiment's all-to-all point once: a
// 32-node Clos under the default seeded fault plan, through the full FM
// stack with the fault timeline installed on every hop. Panics if any
// message goes undelivered — the benchmark doubles as a delivery smoke.
func FaultDrive() workload.FaultResult {
	opt := DefaultOptions()
	n := faultNodes(opt)
	_, ws, err := faultTimeline(opt, n)
	if err != nil {
		panic(err)
	}
	return workload.DriveFMFaultsSharded(workload.ClosSpec(n), core.DefaultConfig(), cost.Default(),
		workload.AllToAll{Rounds: 1}, 112, ws, 1)
}
