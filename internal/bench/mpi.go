package bench

import (
	"fmt"

	"fm/internal/cluster"
	"fm/internal/core"
	"fm/internal/cost"
	"fm/internal/metrics"
	"fm/internal/mpi"
	"fm/internal/sim"
)

// The MPI-layering experiment: the paper positions FM as a substrate
// for communication libraries (MPI first, Section 7), and the
// historical follow-on — MPI-FM — measured what that layering costs.
// This experiment reproduces the comparison in simulation: raw FM vs.
// MPI-on-FM bandwidth and latency sweeps, with Table 2 fits (t0, r_inf,
// n1/2), on the paper's crossbar and on a 2-level Clos where the pair
// communicates across leaf switches. A final segmented curve keeps the
// paper's 128-byte frame fixed so messages above one frame pay
// MPI's segmentation and reassembly.

// mpiPair is one fresh cluster with an MPI world; ranks a and b
// communicate.
type mpiPair struct {
	c    *cluster.FM
	a, b int
}

// mpiPairMaker builds the pair for one measurement at one payload size.
type mpiPairMaker func(size int) mpiPair

// mpiTag is the application tag the drivers use.
const mpiTag = 1

// mpiCrossbar builds the two-node crossbar pair. When frame > 0 the FM
// frame is pinned to that payload (segmentation territory); otherwise
// it is sized so one MPI message fits one fragment, mirroring how
// fmMaker reframes raw FM per size.
func mpiCrossbar(p *cost.Params, frame int) mpiPairMaker {
	return func(size int) mpiPair {
		f := frame
		if f == 0 {
			f = size + mpi.HeaderBytes
		}
		c := cluster.NewFM(2, core.DefaultConfig().WithFrame(f), p)
		return mpiPair{c: c, a: 0, b: 1}
	}
}

// mpiClos builds a 2-spine / 2-leaf Clos with one node per leaf, so the
// pair's traffic crosses leaf -> spine -> leaf.
func mpiClos(p *cost.Params) mpiPairMaker {
	return func(size int) mpiPair {
		c := cluster.NewFMClos(2, 2, 1, 4, core.DefaultConfig().WithFrame(size+mpi.HeaderBytes), p)
		return mpiPair{c: c, a: 0, b: 1}
	}
}

// fmClosPairMaker runs raw FM between the same cross-leaf pair, for the
// like-for-like Clos comparison.
func fmClosPairMaker(cfg core.Config, p *cost.Params) pairMaker {
	return func(size int) metrics.Pair {
		return fmPair(cluster.NewFMClos(2, 2, 1, 4, cfg.WithFrame(size), p))
	}
}

// mpiStreamPoint measures MPI bandwidth at one size: rank a sends
// `packets` tagged messages as fast as the layers allow; the clock
// stops when rank b's last Recv completes (matching and reassembly
// included, as in the paper's host-level methodology).
func mpiStreamPoint(mk mpiPairMaker, size, packets int) metrics.BWPoint {
	pr := mk(size)
	n := len(pr.c.EPs)
	var start, end sim.Time
	pr.c.Start(pr.b, func(ep *core.Endpoint) {
		comm := mpi.NewWorld(ep, n, 0)
		for i := 0; i < packets; i++ {
			comm.Recv(pr.a, mpiTag)
		}
		end = ep.Now()
	})
	pr.c.Start(pr.a, func(ep *core.Endpoint) {
		comm := mpi.NewWorld(ep, n, 0)
		buf := make([]byte, size)
		start = ep.Now()
		for i := 0; i < packets; i++ {
			comm.Send(pr.b, mpiTag, buf)
		}
	})
	if err := pr.c.Run(); err != nil {
		panic(fmt.Sprintf("bench mpi stream @%dB: %v", size, err))
	}
	elapsed := end.Sub(start)
	return metrics.BWPoint{
		N:         size,
		PerPacket: elapsed / sim.Duration(packets),
		MBps:      metrics.Bandwidth(size, packets, elapsed),
	}
}

// mpiLatPoint measures MPI one-way latency by tagged ping-pong,
// elapsed/(2*rounds) as in Section 4.1.
func mpiLatPoint(mk mpiPairMaker, size, rounds int) metrics.LatPoint {
	pr := mk(size)
	n := len(pr.c.EPs)
	var start, end sim.Time
	pr.c.Start(pr.b, func(ep *core.Endpoint) {
		comm := mpi.NewWorld(ep, n, 0)
		for i := 0; i < rounds; i++ {
			data, _ := comm.Recv(pr.a, mpiTag)
			comm.Send(pr.a, mpiTag, data)
		}
	})
	pr.c.Start(pr.a, func(ep *core.Endpoint) {
		comm := mpi.NewWorld(ep, n, 0)
		buf := make([]byte, size)
		start = ep.Now()
		for i := 0; i < rounds; i++ {
			comm.Send(pr.b, mpiTag, buf)
			comm.Recv(pr.b, mpiTag)
		}
		end = ep.Now()
	})
	if err := pr.c.Run(); err != nil {
		panic(fmt.Sprintf("bench mpi pingpong @%dB: %v", size, err))
	}
	return metrics.LatPoint{N: size, OneWay: end.Sub(start) / sim.Duration(2*rounds)}
}

// mpiCurve sweeps one MPI configuration.
func mpiCurve(name string, mk mpiPairMaker, sizes []int, opt Options, withLat bool) Curve {
	return sweepCurve(name, sizes, opt, withLat, 0,
		func(size int) metrics.BWPoint { return mpiStreamPoint(mk, size, opt.Packets) },
		func(size int) metrics.LatPoint { return mpiLatPoint(mk, size, opt.Rounds) })
}

// MPILayering regenerates the cost-of-layering comparison: MPI-on-FM
// vs. raw FM on crossbar and Clos fabrics.
func MPILayering(opt Options) *Report {
	p := cost.Default()
	r := &Report{ID: "mpi", Title: "MPI on FM: the cost of layering"}

	curves := make([]Curve, 5)
	jobs := []func(){
		func() {
			curves[0] = hostCurve("Raw FM (crossbar)", fmMaker(ConfigFullFM(), p), opt.Sizes, serial(opt), true, 0)
		},
		func() {
			curves[1] = mpiCurve("MPI on FM (crossbar)", mpiCrossbar(p, 0), opt.Sizes, serial(opt), true)
		},
		func() {
			curves[2] = hostCurve("Raw FM (Clos, cross-leaf)", fmClosPairMaker(ConfigFullFM(), p), opt.Sizes, serial(opt), true, 0)
		},
		func() {
			curves[3] = mpiCurve("MPI on FM (Clos, cross-leaf)", mpiClos(p), opt.Sizes, serial(opt), true)
		},
		func() {
			curves[4] = mpiCurve("MPI on FM (crossbar, fixed 128B frames, segmented)",
				mpiCrossbar(p, core.DefaultConfig().FramePayload), opt.Sizes, serial(opt), false)
		},
	}
	runParallel(opt.Workers, jobs)
	r.Curves = curves

	raw, layered := curves[0].Fit, curves[1].Fit
	rawClos, layeredClos := curves[2].Fit, curves[3].Fit
	smallLat := func(c Curve) float64 { return c.Lat[0].OneWay.Microseconds() }
	r.KVs = []KV{
		{fmt.Sprintf("crossbar: layering cost in latency @%dB (us)", opt.Sizes[0]),
			fmt.Sprintf("%+.1f", smallLat(curves[1])-smallLat(curves[0])), "a few us (matching + copies)"},
		{"crossbar: layering cost in t0 (us)",
			fmt.Sprintf("%+.1f", layered.T0.Microseconds()-raw.T0.Microseconds()), "matching + header build"},
		{"crossbar: layering cost in r_inf (MB/s)",
			fmt.Sprintf("%+.1f", layered.RInf-raw.RInf), "copies cost ~40%"},
		{"crossbar: n1/2 growth (B)",
			fmt.Sprintf("%+.0f", layered.NHalf-raw.NHalf), "small (t0 and r_inf drop together)"},
		{"clos: layering cost in t0 (us)",
			fmt.Sprintf("%+.1f", layeredClos.T0.Microseconds()-rawClos.T0.Microseconds()), "same software cost"},
		{fmt.Sprintf("clos vs. crossbar: raw FM latency @%dB (us)", opt.Sizes[0]),
			fmt.Sprintf("%+.1f", smallLat(curves[2])-smallLat(curves[0])), "wire + 2 extra switch stages"},
	}
	r.Notes = append(r.Notes,
		"the historical MPI-FM lesson, reproduced: matching and bookkeeping add a fixed few microseconds to every message, and the layer's two extra memory copies (send staging, receive copy-out) cost a large fraction of r_inf — the loss that pushed FM 2.0 toward a gather/scatter interface",
		fmt.Sprintf("MPI fragments carry a %d-byte envelope; single-fragment curves size the frame to the message, the segmented curve pins the paper's 128B frame and pays reassembly above one fragment", mpi.HeaderBytes),
		"clos pair crosses leaf -> spine -> leaf (2 spines x 2 leaves, one node per leaf): the topology's extra latency is visible in raw FM and inherited unchanged by MPI; streaming bandwidth is unaffected because the extra hops pipeline",
	)
	return r
}
