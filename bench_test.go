package fm

// Simulator hot-path benchmarks: each one measures the simulator itself
// (not the modeled hardware) — the kernel event loop, raw fabric
// forwarding, the full FM send/extract stack and the workload drivers.
// CI runs them as a build/panic smoke test; their allocs/op and B/op are
// the regression surface for the engine's allocation discipline, gated
// by cmd/benchcheck against BENCH_gate.json, which lists every Benchmark
// function in this file (see DESIGN.md "Performance"). The paper's
// figures and tables come from cmd/fmbench.
import (
	"testing"

	"fm/internal/bench"
	"fm/internal/core"
	"fm/internal/cost"
	"fm/internal/myrinet"
	"fm/internal/sim"
	"fm/internal/workload"
)

// benchSize is the paper's chosen frame size.
const benchSize = 128

// BenchmarkKernelEvents drives the bare event loop: processes sleeping
// in a tight loop plus a chain of plain events, no network model at all.
func BenchmarkKernelEvents(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		k := sim.NewKernel()
		for p := 0; p < 4; p++ {
			k.Spawn("spin", func(p *sim.Proc) {
				for j := 0; j < 1000; j++ {
					p.Sleep(sim.Microsecond)
				}
			})
		}
		steps := 0
		var tick func()
		tick = func() {
			if steps++; steps < 1000 {
				k.After(sim.Microsecond, tick)
			}
		}
		k.After(sim.Microsecond, tick)
		if err := k.RunAll(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkKernelEventsWide drives the event loop with a wide pending
// population: 4096 event chains spread over a 1ms window, sharing a
// rescheduling budget of width*hops decrements (width seeds plus
// width*hops-1 rescheduled events = 36,863 events per op) — the queue
// shape of a large-fabric simulation (the scale experiment holds
// thousands of pending events), where per-event cost is dominated by
// the scheduler structure itself.
func BenchmarkKernelEventsWide(b *testing.B) {
	b.ReportAllocs()
	const width, hops = 4096, 8
	for i := 0; i < b.N; i++ {
		k := sim.NewKernel()
		left := width * hops
		var hop func()
		hop = func() {
			if left--; left > 0 {
				// Deterministic spread: stride the window so neighbors in
				// the queue are far apart in time, defeating any
				// insertion locality.
				k.After(sim.Duration(1+left%997)*sim.Microsecond, hop)
			}
		}
		for j := 0; j < width; j++ {
			k.After(sim.Duration(1+j%997)*sim.Microsecond, hop)
		}
		if err := k.RunAll(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFabricForward builds a 64-node Clos and forwards 1024 raw
// packets across it (16 per source, rotating destinations): the packet
// pipeline with no host stack on top.
func BenchmarkFabricForward(b *testing.B) {
	b.ReportAllocs()
	p := cost.Default()
	const nodes, perSrc, size = 64, 16, 112
	for i := 0; i < b.N; i++ {
		k := sim.NewKernel()
		f := myrinet.NewClos(k, p, 8, 8, 8, 16)
		delivered := 0
		sink := myrinet.SinkFunc(func(pkt *myrinet.Packet) {
			delivered++
			f.Release(pkt)
		})
		for n := 0; n < nodes; n++ {
			f.Attach(n, sink)
		}
		payload := make([]byte, size)
		for src := 0; src < nodes; src++ {
			src := src
			var inject func(j int)
			inject = func(j int) {
				if j >= perSrc {
					return
				}
				pkt := f.NewPacket()
				pkt.Src, pkt.Dst = src, (src+j+1)%nodes
				pkt.Type = myrinet.Data
				pkt.HeaderBytes = p.FMHeaderBytes
				pkt.Payload = append(pkt.Payload[:0], payload...)
				done := f.Inject(pkt)
				k.At(done, func() { inject(j + 1) })
			}
			k.At(0, func() { inject(0) })
		}
		if err := k.RunAll(); err != nil {
			b.Fatal(err)
		}
		if delivered != nodes*perSrc {
			b.Fatalf("delivered %d/%d", delivered, nodes*perSrc)
		}
	}
}

// BenchmarkFMSendExtract streams 512 frames through the complete FM 1.0
// stack (hosts, SBus, LANai, LCP, flow control) on a two-node crossbar.
func BenchmarkFMSendExtract(b *testing.B) {
	b.ReportAllocs()
	p := cost.Default()
	var mbps float64
	for i := 0; i < b.N; i++ {
		_, mbps = bench.FMStream(bench.ConfigFullFM(), p, benchSize, 512)
	}
	b.ReportMetric(mbps, "sim-MB/s")
}

// BenchmarkWorkloadDrive pushes the uniform-random workload pattern
// through the raw driver on a 64-node Clos: pattern generation, the
// per-source injector chain, and the shared latency-histogram
// collection — the hot path every cell of the patterns experiment runs.
func BenchmarkWorkloadDrive(b *testing.B) {
	b.ReportAllocs()
	p := cost.Default()
	pat := workload.UniformRandom{Seed: 1995, Packets: 16}
	spec := workload.ClosSpec(64)
	var mbps float64
	for i := 0; i < b.N; i++ {
		res := workload.DriveRawSharded(spec, p, pat, 112, 1)
		mbps = res.MBps()
	}
	b.ReportMetric(mbps, "sim-MB/s")
}

// BenchmarkShardedDrive runs the same 64-node Clos uniform-random drive
// as BenchmarkWorkloadDrive split across 2 shard kernels: the sharded
// engine's whole extra surface — replica fabrics, the double-buffered
// outboxes each destination drains, the barrier coordinator — on top
// of the single-kernel hot path. Gated alongside it so a pooling
// regression in the cross-shard path (per-shard packet pools, reused
// outbox buffers) shows up in allocs/op.
func BenchmarkShardedDrive(b *testing.B) {
	b.ReportAllocs()
	p := cost.Default()
	pat := workload.UniformRandom{Seed: 1995, Packets: 16}
	spec := workload.ClosSpec(64)
	var mbps float64
	for i := 0; i < b.N; i++ {
		res := workload.DriveRawSharded(spec, p, pat, 112, 2)
		mbps = res.MBps()
	}
	b.ReportMetric(mbps, "sim-MB/s")
}

// BenchmarkFaultDrive pushes the all-to-all through the full FM stack
// on a 32-node Clos with the default seeded fault plan installed: the
// per-hop fault timeline checks, bounce generation, stranded-frame
// release, and the endpoints' retransmit path — everything the faults
// experiment adds over a clean drive. The driver panics on any
// undelivered message, so this is also a delivery smoke.
func BenchmarkFaultDrive(b *testing.B) {
	b.ReportAllocs()
	var retx float64
	for i := 0; i < b.N; i++ {
		res := bench.FaultDrive()
		retx = float64(res.Stats.Retransmits)
	}
	b.ReportMetric(retx, "sim-retransmits")
}

// BenchmarkSoakDrive streams a deterministic Poisson source through the
// full FM stack on a 16-node Clos past its saturation knee, folding the
// run into 50us series windows: the open-loop pacing loop (poll-wait
// extraction between scheduled sends), per-window histogram recording,
// and retransmit-delta attribution — everything the soak experiment adds
// over a batch FM drive. The driver panics on any undelivered arrival,
// so this is also a delivery smoke.
func BenchmarkSoakDrive(b *testing.B) {
	b.ReportAllocs()
	p := cost.Default()
	spec := workload.ClosSpec(16)
	src := workload.PoissonSource{
		Base:    workload.UniformRandom{Seed: 1995, Packets: 16},
		Seed:    1995,
		MeanGap: 20 * sim.Microsecond,
		Horizon: 300 * sim.Microsecond,
	}
	opt := workload.SoakOptions{Width: 50 * sim.Microsecond, Mode: workload.TerminateHorizon}
	var backlog float64
	for i := 0; i < b.N; i++ {
		res := workload.SoakDriveFM(spec, core.DefaultConfig(), p, src, 112, opt)
		backlog = float64(res.Series.InFlight(res.HorizonWindows() - 1))
	}
	b.ReportMetric(backlog, "sim-backlog")
}
