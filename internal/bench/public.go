package bench

import (
	"fm/internal/core"
	"fm/internal/cost"
	"fm/internal/metrics"
	"fm/internal/myriapi"
	"fm/internal/sim"
	"fm/internal/workload"
)

// Single-point measurement helpers for the repository-level testing.B
// benchmarks (bench_test.go): each call runs one fresh, deterministic
// simulation and returns the paper-style result.

// LANaiStream measures LANai-to-LANai bandwidth (Fig. 3) at one size.
func LANaiStream(p *cost.Params, streamed bool, size, packets int) metrics.BWPoint {
	return lanaiStreamPoint(p, streamed, size, packets)
}

// LANaiPingPong measures LANai-to-LANai one-way latency at one size.
func LANaiPingPong(p *cost.Params, streamed bool, size, rounds int) metrics.LatPoint {
	return lanaiLatPoint(p, streamed, size, rounds)
}

// FMStream measures host-to-host bandwidth through an FM configuration.
func FMStream(cfg core.Config, p *cost.Params, size, packets int) (sim.Duration, float64) {
	elapsed, bw, err := metrics.Stream(fmMaker(cfg, p)(size), size, packets)
	if err != nil {
		panic(err)
	}
	return elapsed, bw
}

// FMPingPong measures host-to-host one-way latency through an FM
// configuration.
func FMPingPong(cfg core.Config, p *cost.Params, size, rounds int) sim.Duration {
	lat, err := metrics.PingPong(fmMaker(cfg, p)(size), size, rounds)
	if err != nil {
		panic(err)
	}
	return lat
}

// APIStream measures bandwidth through the Myrinet API comparator.
func APIStream(v myriapi.Variant, p *cost.Params, size, packets int) (sim.Duration, float64) {
	elapsed, bw, err := metrics.Stream(apiMaker(v, p)(size), size, packets)
	if err != nil {
		panic(err)
	}
	return elapsed, bw
}

// APIPingPong measures one-way latency through the Myrinet API.
func APIPingPong(v myriapi.Variant, p *cost.Params, size, rounds int) sim.Duration {
	lat, err := metrics.PingPong(apiMaker(v, p)(size), size, rounds)
	if err != nil {
		panic(err)
	}
	return lat
}

// MPIStream measures host-to-host bandwidth through the MPI layer on
// the full FM stack (two-node crossbar, frame sized to one fragment).
func MPIStream(p *cost.Params, size, packets int) metrics.BWPoint {
	return mpiStreamPoint(mpiCrossbar(p, 0), size, packets)
}

// MPIPingPong measures one-way tagged-message latency through the MPI
// layer on the full FM stack.
func MPIPingPong(p *cost.Params, size, rounds int) metrics.LatPoint {
	return mpiLatPoint(mpiCrossbar(p, 0), size, rounds)
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
