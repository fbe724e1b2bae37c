package bench

import (
	"fmt"

	"fm/internal/cluster"
	"fm/internal/core"
	"fm/internal/cost"
	"fm/internal/metrics"
	"fm/internal/sim"
	"fm/internal/workload"
)

// Ablations regenerates the design-choice studies the paper's Discussion
// and Conclusion call for:
//
//   - A1 frame size: "it may be most advantageous to pick frame sizes
//     which deliver 80-90% of the achievable bandwidth" (Section 5) —
//     the justification for FM 1.0's 128-byte frame.
//   - A2 flow control: return-to-sender vs. a traditional sliding window
//     under a multi-sender hotspot (Section 5 future study), including
//     the receiver-memory scaling argument.
//   - A3 hardware what-ifs: burst-mode PIO across the MBus-SBus
//     interface and a faster LANai (Section 6's "two minor changes").
//   - A4 DMA aggregation: matching queue structures lets short messages
//     share host-DMA transfers (Section 4.4).
//   - A5 ack piggybacking (Section 4.5).
func Ablations(opt Options) *Report {
	p := cost.Default()
	r := &Report{ID: "ablations", Title: "Design-choice ablations"}

	var frameKVs, flowKVs, hwRows, aggKVs, ackKVs any
	jobs := []func(){
		func() { frameKVs = frameSizeStudy(p, opt) },
		func() { flowKVs = flowControlStudy(p, opt) },
		func() { hwRows = hardwareStudy(p, opt) },
		func() { aggKVs = aggregationStudy(p, opt) },
		func() { ackKVs = piggybackStudy(p, opt) },
	}
	runParallel(opt.Workers, jobs)

	r.KVs = append(r.KVs, frameKVs.([]KV)...)
	r.KVs = append(r.KVs, flowKVs.([]KV)...)
	r.KVs = append(r.KVs, aggKVs.([]KV)...)
	r.KVs = append(r.KVs, ackKVs.([]KV)...)
	r.Rows = hwRows.([]Row)
	return r
}

// frameSizeStudy locates the frame sizes achieving 80% and 90% of peak
// bandwidth on the full FM layer.
func frameSizeStudy(p *cost.Params, opt Options) []KV {
	sizes := []int{16, 32, 64, 128, 192, 256, 384, 512, 768, 1024}
	c := hostCurve("FM frame sweep", fmMaker(ConfigFullFM(), p), sizes, serial(opt), false, 0)
	find := func(frac float64) int {
		target := c.Fit.RInf * frac
		for _, pt := range c.BW {
			if pt.MBps >= target {
				return pt.N
			}
		}
		return sizes[len(sizes)-1]
	}
	n80, n90 := find(0.8), find(0.9)
	bw128 := metrics.Interp(c.BW, 128)
	return []KV{
		{"A1 frame size for 80% of peak bandwidth (B)", fmt.Sprintf("%d", n80), "~128 (FM 1.0's choice)"},
		{"A1 frame size for 90% of peak bandwidth (B)", fmt.Sprintf("%d", n90), "few hundred"},
		{"A1 bandwidth at 128B frames (MB/s)", fmt.Sprintf("%.1f (%.0f%% of peak)", bw128, 100*bw128/c.Fit.RInf), "16.2 (~80%)"},
	}
}

// hotspotResult summarizes one multi-sender hotspot run.
type hotspotResult struct {
	elapsed     sim.Duration
	rejects     uint64
	retransmits uint64
	pktsPerDMA  float64 // receiver's average packets per host-DMA transfer
}

// hotspot drives `senders` nodes streaming at one receiver (node 0)
// that spends recvDelay per message — the workload incast pattern
// generates the traffic; the receiver stays hand-built because the
// studies read receive-path counters (rejects, host-DMA batching) no
// generic driver exposes.
func hotspot(cfg core.Config, p *cost.Params, senders, packets, size int, recvDelay sim.Duration) hotspotResult {
	c := cluster.NewFM(senders+1, cfg.WithFrame(size), p)
	pattern := workload.Incast{Target: 0, Packets: packets}
	total := workload.Total(pattern, senders+1)
	got := 0
	c.Start(0, func(ep *core.Endpoint) {
		ep.RegisterHandler(0, func(int, []byte) {
			got++
			if recvDelay > 0 {
				ep.CPU().Advance(recvDelay)
			}
		})
		for got < total {
			ep.WaitIncoming()
			ep.Extract()
		}
		ep.Extract()
	})
	for s := 1; s <= senders; s++ {
		sends := pattern.Gen(s, senders+1)
		c.Start(s, func(ep *core.Endpoint) {
			buf := make([]byte, size)
			for _, snd := range sends {
				if err := ep.Send(snd.Dst, 0, buf); err != nil {
					panic(err)
				}
			}
			for ep.Outstanding() > 0 {
				ep.WaitIncoming()
				ep.Extract()
			}
		})
	}
	if err := c.Run(); err != nil {
		panic(err)
	}
	if got != total {
		panic(fmt.Sprintf("hotspot delivered %d/%d", got, total))
	}
	st := c.Devs[0].Stats()
	res := hotspotResult{
		elapsed:    sim.Duration(c.K.Now()),
		rejects:    c.EPs[0].Stats().RejectsSent,
		pktsPerDMA: float64(st.HostDMAPackets) / float64(st.HostDMABatches),
	}
	for s := 1; s <= senders; s++ {
		res.retransmits += c.EPs[s].Stats().Retransmits
	}
	return res
}

// flowControlStudy compares return-to-sender against a sliding window on
// a 4-senders-1-receiver hotspot with a slow consumer, and states the
// buffer-memory scaling argument quantitatively.
func flowControlStudy(p *cost.Params, opt Options) []KV {
	const senders = 4
	const size = 128
	packets := opt.Packets / 16
	if packets > 2048 {
		packets = 2048
	}
	delay := 12 * sim.Microsecond

	rts := ConfigFullFM()
	rts.DrainLimit = 8
	rts.HostRecvSlots = 64
	rts.RejectThreshold = 48
	win := rts
	win.Protocol = core.SlidingWindow
	win.WindowPerDest = 16
	win.HostRecvSlots = senders*win.WindowPerDest + 8 // per-sender reservation
	win.RejectThreshold = 0

	a := hotspot(rts, p, senders, packets, size, delay)
	b := hotspot(win, p, senders, packets, size, delay)

	// Receiver pinned-buffer requirement: constant for return-to-sender
	// (the reject queue lives at the *senders*), linear in senders for
	// windows. Scale the comparison to the paper's context.
	frame := size + p.FMHeaderBytes
	winMem := func(n int) int { return n * win.WindowPerDest * frame }
	return []KV{
		{"A2 hotspot throughput, return-to-sender (MB/s)",
			fmt.Sprintf("%.1f", metrics.Bandwidth(size, senders*packets, a.elapsed)), "-"},
		{"A2 hotspot throughput, sliding window (MB/s)",
			fmt.Sprintf("%.1f", metrics.Bandwidth(size, senders*packets, b.elapsed)), "-"},
		{"A2 rejects+retransmits (RTS)", fmt.Sprintf("%d+%d", a.rejects, a.retransmits), ">0 under overload"},
		{"A2 rejects (window — must be zero)", fmt.Sprintf("%d", b.rejects), "0"},
		{"A2 receiver pinned memory, window, 4 senders (B)", fmt.Sprintf("%d", winMem(senders)), "grows with senders"},
		{"A2 receiver pinned memory, window, 64 senders (B)", fmt.Sprintf("%d", winMem(64)), "grows with senders"},
		{"A2 receiver pinned memory, RTS, any senders (B)", fmt.Sprintf("%d", rts.HostRecvSlots*frame), "constant"},
	}
}

// hardwareStudy refits the full FM layer under the Conclusion's two
// hardware improvements.
func hardwareStudy(p *cost.Params, opt Options) []Row {
	variants := []struct {
		name  string
		par   *cost.Params
		paper [3]string
	}{
		{"FM on 1995 hardware", p, [3]string{"4.1", "21.4", "54"}},
		{"FM + burst-mode PIO (MBus-SBus write buffer)", p.WithBurstPIO(), [3]string{"-", "-> streamed-like r_inf", "-"}},
		{"FM + 2x faster LANai", p.WithFasterLANai(2), [3]string{"-", "lower t0", "-"}},
		{"FM + both improvements", p.WithBurstPIO().WithFasterLANai(2), [3]string{"-", "-", "-"}},
	}
	// Workers=1: hardwareStudy already runs inside one of Ablations'
	// parallel jobs (the serial() convention), so a nested full-width
	// pool would only oversubscribe the CPUs.
	return mapN(1, len(variants), func(i int) Row {
		v := variants[i]
		c := hostCurve(v.name, fmMaker(ConfigFullFM(), v.par), opt.Sizes, serial(opt), false, 0)
		return Row{
			Name: "A3 " + v.name, T0us: c.Fit.T0.Microseconds(), RInf: c.Fit.RInf,
			NHalf: c.Fit.NHalf, Extrap: c.Fit.NHalfExtrapolated,
			PaperT0: v.paper[0], PaperR: v.paper[1], PaperN: v.paper[2],
		}
	})
}

// aggregationStudy measures the receive path with and without host-DMA
// aggregation under converging senders.
func aggregationStudy(p *cost.Params, opt Options) []KV {
	const senders = 2
	const size = 256
	packets := opt.Packets / 16
	if packets > 2048 {
		packets = 2048
	}
	run := func(aggregate bool) hotspotResult {
		cfg := ConfigFullFM()
		cfg.Aggregate = aggregate
		return hotspot(cfg, p, senders, packets, size, 0)
	}
	on, off := run(true), run(false)
	return []KV{
		{"A4 aggregated: avg packets per host DMA", fmt.Sprintf("%.2f", on.pktsPerDMA), ">1 under load"},
		{"A4 unaggregated: avg packets per host DMA", fmt.Sprintf("%.2f", off.pktsPerDMA), "1"},
		{"A4 hotspot completion, aggregated (ms)", fmt.Sprintf("%.2f", float64(on.elapsed)/float64(sim.Millisecond)), "-"},
		{"A4 hotspot completion, unaggregated (ms)", fmt.Sprintf("%.2f", float64(off.elapsed)/float64(sim.Millisecond)), "slower"},
	}
}

// piggybackStudy compares ack traffic with piggybacking on and off under
// bidirectional (ping-pong) load.
func piggybackStudy(p *cost.Params, opt Options) []KV {
	run := func(piggyback bool) (sim.Duration, uint64, uint64) {
		cfg := ConfigFullFM()
		cfg.PiggybackAcks = piggyback
		c := cluster.NewFM(2, cfg.WithFrame(128), p)
		lat, err := metrics.PingPong(fmPair(c), 128, opt.Rounds)
		if err != nil {
			panic(err)
		}
		s0, s1 := c.EPs[0].Stats(), c.EPs[1].Stats()
		return lat, s0.AcksSent + s1.AcksSent, s0.AcksPiggybacked + s1.AcksPiggybacked
	}
	latOn, standaloneOn, piggyOn := run(true)
	latOff, standaloneOff, _ := run(false)
	return []KV{
		{"A5 piggyback on: one-way latency (us)", fmt.Sprintf("%.1f", latOn.Microseconds()), "-"},
		{"A5 piggyback on: standalone/piggybacked acks", fmt.Sprintf("%d/%d", standaloneOn, piggyOn), "mostly piggybacked"},
		{"A5 piggyback off: one-way latency (us)", fmt.Sprintf("%.1f", latOff.Microseconds()), "-"},
		{"A5 piggyback off: standalone acks", fmt.Sprintf("%d", standaloneOff), "one per message batch"},
	}
}
