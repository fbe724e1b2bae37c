package lcp_test

import (
	"testing"

	"fm/internal/bench"
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

// TestTable4EventCounts pins the control program event for event. For a
// small point of every LCP configuration Table 4 runs, it checks how
// many events the kernel executes, the instant the run ends, and the
// time the point measures (the stream's elapsed time, or the ping-pong's
// time to its last reply). The constants were recorded when the control
// program still ran as a simulated process. Moving, adding or dropping a
// step, or scheduling one at another instant, changes at least one of
// them on some row.
func TestTable4EventCounts(t *testing.T) {
	const size, packets, rounds = 128, 64, 8
	cases := []struct {
		name     string
		run      func(p *cost.Params) (*sim.Kernel, sim.Duration, error)
		events   uint64
		end      sim.Time
		measured sim.Duration
	}{
		{"baseline LANai stream", lanaiStream(false, size, packets), 514, 382_670_000, 382_670_000},
		{"baseline LANai ping-pong", lanaiPingPong(false, size, rounds), 130, 175_520_000, 175_520_000},
		{"streamed LANai stream", lanaiStream(true, size, packets), 514, 337_170_000, 337_170_000},
		{"streamed LANai ping-pong", lanaiPingPong(true, size, rounds), 130, 153_120_000, 153_120_000},
		{"hybrid", fmStream(bench.ConfigHybridVestigial(), size, packets), 1289, 518_448_000, 517_608_000},
		{"buf + flow", fmStream(bench.ConfigFullFM(), size, packets), 1708, 568_276_000, 555_034_000},
		{"buf + switch", fmStream(bench.ConfigBufSwitch(), size, packets), 1105, 544_142_000, 543_152_000},
		{"all DMA", fmStream(bench.ConfigAllDMAVestigial(), size, packets), 1609, 613_544_800, 612_704_800},
		{"API send_imm", apiStream(myriapi.SendImm, size, packets), 1862, 6_965_214_000, 6_964_964_000},
		{"API send", apiStream(myriapi.SendDMA, size, packets), 2310, 8_837_390_800, 8_837_140_800},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			k, measured, err := c.run(cost.Default())
			if err != nil {
				t.Fatal(err)
			}
			if k.EventsRun() != c.events || k.Now() != c.end || measured != c.measured {
				t.Errorf("ran %d events, ended at %d ps and measured %d ps; want %d events, %d ps and %d ps",
					k.EventsRun(), int64(k.Now()), int64(measured), c.events, int64(c.end), int64(c.measured))
			}
		})
	}
}

// lanaiDevices builds two bare LANai cards on the paper's crossbar, the
// way the Table 4 LANai-only rows do.
func lanaiDevices(p *cost.Params, size int) (*sim.Kernel, *lanai.Device, *lanai.Device) {
	k := sim.NewKernel()
	fab := myrinet.NewCrossbar(k, p, 2, 8)
	qc := lanai.DefaultQueues(size + p.FMHeaderBytes)
	d0 := lanai.New(k, p, sbus.New(k, p, "sbus0"), fab, 0, qc)
	d1 := lanai.New(k, p, sbus.New(k, p, "sbus1"), fab, 1, qc)
	return k, d0, d1
}

// lanaiStream streams synthetic frames from card 0 to card 1 and
// measures the time to the last arrival.
func lanaiStream(streamed bool, size, packets int) func(*cost.Params) (*sim.Kernel, sim.Duration, error) {
	return func(p *cost.Params) (*sim.Kernel, sim.Duration, error) {
		k, d0, d1 := lanaiDevices(p, size)
		var last sim.Time
		lcp.Start(d0, lcp.Options{Streamed: streamed, Source: lcp.Synthetic, SynthDst: 1})
		lcp.Start(d1, lcp.Options{Streamed: streamed, Source: lcp.Synthetic, SynthDst: 0,
			OnReceive: func(*myrinet.Packet) { last = k.Now() }})
		d0.SetSynthetic(packets, size)
		err := k.RunAll()
		return k, sim.Duration(last), err
	}
}

// lanaiPingPong bounces one synthetic frame between the two cards and
// measures the time to the last reply.
func lanaiPingPong(streamed bool, size, rounds int) func(*cost.Params) (*sim.Kernel, sim.Duration, error) {
	return func(p *cost.Params) (*sim.Kernel, sim.Duration, error) {
		k, d0, d1 := lanaiDevices(p, size)
		var finish sim.Time
		got := 0
		lcp.Start(d1, lcp.Options{Streamed: streamed, Source: lcp.Synthetic, SynthDst: 0,
			OnReceive: func(*myrinet.Packet) { d1.AddSynthetic(1) }})
		lcp.Start(d0, lcp.Options{Streamed: streamed, Source: lcp.Synthetic, SynthDst: 1,
			OnReceive: func(*myrinet.Packet) {
				finish = k.Now()
				if got++; got < rounds {
					d0.AddSynthetic(1)
				}
			}})
		d1.SetSynthetic(0, size)
		d0.SetSynthetic(1, size)
		err := k.RunAll()
		return k, sim.Duration(finish), err
	}
}

// fmStream streams FM messages between two hosts of an FM cluster.
func fmStream(cfg core.Config, size, packets int) func(*cost.Params) (*sim.Kernel, sim.Duration, error) {
	return func(p *cost.Params) (*sim.Kernel, sim.Duration, error) {
		c := cluster.NewFM(2, cfg.WithFrame(size), p)
		elapsed, err := stream(c.Hardware, c.EPs[0], c.EPs[1], size, packets)
		return c.K, elapsed, err
	}
}

// apiStream streams messages between two hosts of a Myrinet API cluster.
func apiStream(v myriapi.Variant, size, packets int) func(*cost.Params) (*sim.Kernel, sim.Duration, error) {
	return func(p *cost.Params) (*sim.Kernel, sim.Duration, error) {
		c := myriapi.NewCluster(2, myriapi.DefaultConfig(v), p)
		elapsed, err := stream(c.Hardware, c.EPs[0], c.EPs[1], size, packets)
		return c.K, elapsed, err
	}
}

// stream runs the paper's bandwidth measurement from a to b and returns
// its elapsed time.
func stream(hw *cluster.Hardware, a, b metrics.Messenger, size, packets int) (sim.Duration, error) {
	elapsed, _, err := metrics.Stream(metrics.Pair{
		A:      a,
		B:      b,
		StartA: func(app func()) { hw.CPUs[0].Start(app) },
		StartB: func(app func()) { hw.CPUs[1].Start(app) },
		Run:    hw.Run,
	}, size, packets)
	return elapsed, err
}
