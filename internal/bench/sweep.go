package bench

import (
	"fmt"

	"fm/internal/cluster"
	"fm/internal/core"
	"fm/internal/cost"
	"fm/internal/lanai"
	"fm/internal/lcp"
	"fm/internal/metrics"
	"fm/internal/myriapi"
	"fm/internal/myrinet"
	"fm/internal/sbus"
	"fm/internal/sim"
)

// pairMaker builds a fresh two-node cluster pair for one measurement at
// the given payload size. Every measurement gets its own simulation.
type pairMaker func(size int) metrics.Pair

// fmMaker sweeps an FM layer configuration, resizing the frame to the
// payload as the paper's packet-size sweeps do.
func fmMaker(cfg core.Config, p *cost.Params) pairMaker {
	return func(size int) metrics.Pair {
		return fmPair(cluster.NewFM(2, cfg.WithFrame(size), p))
	}
}

// fmPair measures between nodes 0 and 1 of an FM cluster.
func fmPair(c *cluster.FM) metrics.Pair {
	return metrics.Pair{
		A:      c.EPs[0],
		B:      c.EPs[1],
		StartA: func(app func()) { c.CPUs[0].Start(app) },
		StartB: func(app func()) { c.CPUs[1].Start(app) },
		Run:    c.Run,
	}
}

// apiMaker sweeps a Myrinet API variant (fixed buffer geometry; the API
// does not reframe per message size).
func apiMaker(v myriapi.Variant, p *cost.Params) pairMaker {
	return func(size int) metrics.Pair {
		c := myriapi.NewCluster(2, myriapi.DefaultConfig(v), p)
		return metrics.Pair{
			A:      c.EPs[0],
			B:      c.EPs[1],
			StartA: func(app func()) { c.CPUs[0].Start(app) },
			StartB: func(app func()) { c.CPUs[1].Start(app) },
			Run:    c.Run,
		}
	}
}

// sweepCurve measures one curve across the size sweep: bw at every
// size, lat too when withLat is set. The points fan out over
// runParallel, each writing its own result slot, so the curve is
// byte-identical at any worker count. refR forwards the reference r_inf
// for n1/2 (the API methodology).
func sweepCurve(name string, sizes []int, opt Options, withLat bool, refR float64,
	bw func(size int) metrics.BWPoint, lat func(size int) metrics.LatPoint) Curve {
	c := Curve{Name: name}
	c.BW = make([]metrics.BWPoint, len(sizes))
	if withLat {
		c.Lat = make([]metrics.LatPoint, len(sizes))
	}
	var jobs []func()
	for i, size := range sizes {
		jobs = append(jobs, func() { c.BW[i] = bw(size) })
		if withLat {
			jobs = append(jobs, func() { c.Lat[i] = lat(size) })
		}
	}
	runParallel(opt.Workers, jobs)
	c.Fit = metrics.FitSweep(c.BW, refR)
	return c
}

// hostCurve measures one host-to-host layer configuration across the
// size sweep.
func hostCurve(name string, mk pairMaker, sizes []int, opt Options, withLat bool, refR float64) Curve {
	return sweepCurve(name, sizes, opt, withLat, refR,
		func(size int) metrics.BWPoint {
			elapsed, bw, err := metrics.Stream(mk(size), size, opt.Packets)
			if err != nil {
				panic(fmt.Sprintf("bench %s @%dB stream: %v", name, size, err))
			}
			return metrics.BWPoint{
				N:         size,
				PerPacket: elapsed / sim.Duration(opt.Packets),
				MBps:      bw,
			}
		},
		func(size int) metrics.LatPoint {
			lat, err := metrics.PingPong(mk(size), size, opt.Rounds)
			if err != nil {
				panic(fmt.Sprintf("bench %s @%dB pingpong: %v", name, size, err))
			}
			return metrics.LatPoint{N: size, OneWay: lat}
		})
}

// --- LANai-to-LANai drivers (Figure 3: no hosts, no SBus) ---

// lanaiPair builds two bare LANai devices on the 8-port crossbar.
func lanaiPair(p *cost.Params, frame int) (*sim.Kernel, *lanai.Device, *lanai.Device) {
	k := sim.NewKernel()
	fab := myrinet.NewCrossbar(k, p, 2, 8)
	qc := lanai.DefaultQueues(frame + p.FMHeaderBytes)
	d0 := lanai.New(k, p, sbus.New(k, p, "sbus0"), fab, 0, qc)
	d1 := lanai.New(k, p, sbus.New(k, p, "sbus1"), fab, 1, qc)
	return k, d0, d1
}

// lanaiStreamPoint measures LANai-level bandwidth at one size.
func lanaiStreamPoint(p *cost.Params, streamed bool, size, packets int) metrics.BWPoint {
	k, d0, d1 := lanaiPair(p, size)
	var last sim.Time
	got := 0
	lcp.Start(d0, lcp.Options{Streamed: streamed, Source: lcp.Synthetic, SynthDst: 1})
	lcp.Start(d1, lcp.Options{Streamed: streamed, Source: lcp.Synthetic, SynthDst: 0,
		OnReceive: func(*myrinet.Packet) {
			got++
			last = k.Now()
		}})
	d0.SetSynthetic(packets, size)
	if err := k.RunAll(); err != nil {
		panic(err)
	}
	if got != packets {
		panic(fmt.Sprintf("lanai stream delivered %d/%d", got, packets))
	}
	elapsed := sim.Duration(last)
	return metrics.BWPoint{
		N:         size,
		PerPacket: elapsed / sim.Duration(packets),
		MBps:      metrics.Bandwidth(size, packets, elapsed),
	}
}

// lanaiLatPoint measures LANai-level one-way latency at one size.
func lanaiLatPoint(p *cost.Params, streamed bool, size, rounds int) metrics.LatPoint {
	k, d0, d1 := lanaiPair(p, size)
	var finish sim.Time
	got := 0
	lcp.Start(d1, lcp.Options{Streamed: streamed, Source: lcp.Synthetic, SynthDst: 0,
		OnReceive: func(*myrinet.Packet) { d1.AddSynthetic(1) }})
	lcp.Start(d0, lcp.Options{Streamed: streamed, Source: lcp.Synthetic, SynthDst: 1,
		OnReceive: func(*myrinet.Packet) {
			got++
			finish = k.Now()
			if got < rounds {
				d0.AddSynthetic(1)
			}
		}})
	d1.SetSynthetic(0, size)
	d0.SetSynthetic(1, size)
	if err := k.RunAll(); err != nil {
		panic(err)
	}
	if got != rounds {
		panic(fmt.Sprintf("lanai pingpong completed %d/%d", got, rounds))
	}
	return metrics.LatPoint{N: size, OneWay: sim.Duration(finish) / sim.Duration(2*rounds)}
}

// lanaiCurve sweeps one LCP loop structure.
func lanaiCurve(name string, streamed bool, p *cost.Params, sizes []int, opt Options, withLat bool) Curve {
	return sweepCurve(name, sizes, opt, withLat, 0,
		func(size int) metrics.BWPoint { return lanaiStreamPoint(p, streamed, size, opt.Packets) },
		func(size int) metrics.LatPoint { return lanaiLatPoint(p, streamed, size, opt.Rounds) })
}

// theoreticalCurve generates the Appendix A peak model: an LCP that does
// nothing but perfectly sized DMAs. Latency l = tDMA + wire + tswitch;
// bandwidth r = N / (tDMA + wire).
func theoreticalCurve(p *cost.Params, sizes []int) Curve {
	c := Curve{Name: "Theoretical peak"}
	for _, n := range sizes {
		wire := p.LinkTime(n + p.FMHeaderBytes)
		per := p.DMASetup + wire
		c.Lat = append(c.Lat, metrics.LatPoint{N: n, OneWay: per + p.SwitchLatency})
		c.BW = append(c.BW, metrics.BWPoint{N: n, PerPacket: per, MBps: metrics.Bandwidth(n, 1, per)})
	}
	c.Fit = metrics.FitSweep(c.BW, 0)
	return c
}
