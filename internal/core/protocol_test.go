package core_test

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"testing"

	"fm/internal/cluster"
	"fm/internal/core"
	"fm/internal/cost"
	"fm/internal/sim"
	"fm/internal/stats"
)

// TestRandomTrafficExactlyOnce is the protocol's property test: across
// randomized configurations (queue depths, windows, thresholds, drain
// limits, SBus modes, protocols) and randomized many-to-many traffic,
// every sent message is delivered exactly once with intact contents.
func TestRandomTrafficExactlyOnce(t *testing.T) {
	for trial := 0; trial < 8; trial++ {
		trial := trial
		t.Run(fmt.Sprintf("trial%d", trial), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(1000 + trial)))

			cfg := core.DefaultConfig()
			cfg.CheckInvariants = true
			cfg.FramePayload = 32 + rng.Intn(200)
			cfg.SendSlots = 4 + rng.Intn(24)
			cfg.RecvSlots = 8 + rng.Intn(48)
			cfg.HostRecvSlots = 16 + rng.Intn(64)
			cfg.WindowSlots = 8 + rng.Intn(96)
			cfg.AckBatch = 2 + rng.Intn(12)
			cfg.RetryDelay = sim.Duration(10+rng.Intn(80)) * sim.Microsecond
			if rng.Intn(2) == 0 {
				cfg.DrainLimit = 1 + rng.Intn(4)
				cfg.RejectThreshold = cfg.HostRecvSlots / 4
			}
			if rng.Intn(4) == 0 {
				cfg.SBusMode = core.AllDMA
			}
			if rng.Intn(3) == 0 {
				cfg.Protocol = core.SlidingWindow
				cfg.WindowPerDest = 4 + rng.Intn(12)
				cfg.RejectThreshold = 0
			}

			nodes := 2 + rng.Intn(3)
			if cfg.Protocol == core.SlidingWindow {
				cfg.HostRecvSlots = nodes*cfg.WindowPerDest + 8
			}
			perSender := 50 + rng.Intn(150)

			c := cluster.NewFM(nodes, cfg, cost.Default())
			type msgID struct{ src, idx int }
			delivered := make(map[msgID]int)
			total := 0
			want := make(map[msgID]byte)

			counts := make([]int, nodes)
			expect := make([]int, nodes)
			// Precompute destinations so expected per-node counts are known.
			plans := make([][]int, nodes)
			for s := 0; s < nodes; s++ {
				plans[s] = make([]int, perSender)
				for i := range plans[s] {
					d := rng.Intn(nodes - 1)
					if d >= s {
						d++
					}
					plans[s][i] = d
					expect[d]++
					total++
				}
			}

			// A node is finished only when the whole cluster is quiet:
			// its own receive count met everywhere, and no endpoint has
			// unacknowledged packets. Nodes linger with a timed poll so
			// peers' trailing acks and retransmissions are serviced.
			doneRecv := 0
			quiet := func() bool {
				if doneRecv < nodes {
					return false
				}
				for _, ep := range c.EPs {
					if ep.Outstanding() > 0 {
						return false
					}
				}
				return true
			}
			for n := 0; n < nodes; n++ {
				n := n
				c.Start(n, func(ep *core.Endpoint) {
					ep.RegisterHandler(0, func(src int, payload []byte) {
						idx := int(payload[0]) | int(payload[1])<<8
						id := msgID{src, idx}
						delivered[id]++
						if payload[2] != want[id] {
							t.Errorf("message %v content %d, want %d", id, payload[2], want[id])
						}
						counts[n]++
					})
					size := 3 + rng.Intn(cfg.FramePayload-3)
					buf := make([]byte, size)
					for i, d := range plans[n] {
						buf[0] = byte(i)
						buf[1] = byte(i >> 8)
						buf[2] = byte((n*7 + i*13) % 251)
						want[msgID{n, i}] = buf[2]
						if err := ep.Send(d, 0, buf); err != nil {
							t.Errorf("send: %v", err)
							return
						}
						if i%7 == 0 {
							ep.Extract()
						}
					}
					for counts[n] < expect[n] {
						ep.WaitIncoming()
						ep.Extract()
					}
					doneRecv++
					for !quiet() {
						c.Devs[n].HostRecvAvail.PulseAfter(150 * sim.Microsecond)
						c.CPUs[n].Wait(c.Devs[n].HostRecvAvail)
						ep.Extract()
					}
				})
			}
			if err := c.Run(); err != nil {
				t.Fatal(err)
			}
			if len(delivered) != total {
				t.Fatalf("delivered %d distinct messages, want %d", len(delivered), total)
			}
			for id, n := range delivered {
				if n != 1 {
					t.Fatalf("message %v delivered %d times", id, n)
				}
			}
			for n := 0; n < nodes; n++ {
				if st := c.EPs[n].Stats(); st.Duplicates != 0 {
					t.Errorf("node %d screened %d duplicates", n, st.Duplicates)
				}
				if out := c.EPs[n].Outstanding(); out != 0 {
					t.Errorf("node %d still has %d outstanding", n, out)
				}
			}
		})
	}
}

// TestWindowProtocolUsesPerDestLimits: sliding-window mode enforces the
// per-destination window rather than the global reject-region limit.
func TestWindowProtocolUsesPerDestLimits(t *testing.T) {
	cfg := core.DefaultConfig()
	cfg.Protocol = core.SlidingWindow
	cfg.WindowPerDest = 4
	cfg.WindowSlots = 1000 // irrelevant in window mode
	cfg.RejectThreshold = 0
	cfg.HostRecvSlots = 64
	c := cluster.NewFM(3, cfg, cost.Default())

	recv := make([]int, 3)
	for n := 1; n <= 2; n++ {
		n := n
		c.Start(n, func(ep *core.Endpoint) {
			ep.RegisterHandler(0, func(int, []byte) { recv[n]++ })
			for recv[n] < 30 {
				ep.WaitIncoming()
				ep.Extract()
			}
			ep.Extract()
		})
	}
	maxOut := 0
	c.Start(0, func(ep *core.Endpoint) {
		// Interleave toward two destinations; combined outstanding may
		// reach 2*WindowPerDest but no further.
		for i := 0; i < 30; i++ {
			ep.Send4(1, 0, uint32(i), 0, 0, 0)
			ep.Send4(2, 0, uint32(i), 0, 0, 0)
			if o := ep.Outstanding(); o > maxOut {
				maxOut = o
			}
		}
		for ep.Outstanding() > 0 {
			ep.WaitIncoming()
			ep.Extract()
		}
	})
	if err := c.Run(); err != nil {
		t.Fatal(err)
	}
	if maxOut > 8 {
		t.Errorf("outstanding reached %d, per-dest window 4 x 2 dests = 8", maxOut)
	}
	if recv[1] != 30 || recv[2] != 30 {
		t.Fatalf("recv = %v", recv)
	}
}

// TestRejectQueueNeverOverflows: the deadlock-freedom invariant — the
// reject queue has reserved space for every outstanding packet, so even
// when the receiver bounces nearly everything, the sender never panics
// on a full reject queue (a panic would fail the run).
func TestRejectQueueNeverOverflows(t *testing.T) {
	cfg := core.DefaultConfig()
	cfg.CheckInvariants = true
	cfg.WindowSlots = 16 // small window = small reject reserve
	cfg.HostRecvSlots = 16
	cfg.RejectThreshold = 2 // bounce aggressively
	cfg.DrainLimit = 1
	cfg.AckBatch = 2
	cfg.RetryDelay = 10 * sim.Microsecond
	c := cluster.NewFM(2, cfg, cost.Default())
	const n = 120

	recv := 0
	c.Start(1, func(ep *core.Endpoint) {
		ep.RegisterHandler(0, func(int, []byte) {
			recv++
			ep.CPU().Advance(40 * sim.Microsecond)
		})
		for recv < n {
			ep.WaitIncoming()
			ep.Extract()
		}
		ep.Extract()
	})
	c.Start(0, func(ep *core.Endpoint) {
		for i := 0; i < n; i++ {
			ep.Send4(1, 0, uint32(i), 0, 0, 0)
		}
		for ep.Outstanding() > 0 {
			ep.WaitIncoming()
			ep.Extract()
		}
	})
	if err := c.Run(); err != nil {
		t.Fatal(err) // a reject-queue overflow would surface here
	}
	if recv != n {
		t.Fatalf("recv = %d", recv)
	}
	if c.EPs[0].Stats().Retransmits == 0 {
		t.Error("scenario failed to exercise retransmission")
	}
}

// TestInterpretConfigReachesLCP: the Interpret knob must actually slow
// the stack (guards against config plumbing regressions).
func TestInterpretConfigReachesLCP(t *testing.T) {
	run := func(interpret bool) sim.Time {
		cfg := core.DefaultConfig()
		cfg.Interpret = interpret
		c := cluster.NewFM(2, cfg, cost.Default())
		recv := 0
		c.Start(1, func(ep *core.Endpoint) {
			ep.RegisterHandler(0, func(int, []byte) { recv++ })
			for recv < 200 {
				ep.WaitIncoming()
				ep.Extract()
			}
			ep.Extract()
		})
		c.Start(0, func(ep *core.Endpoint) {
			for i := 0; i < 200; i++ {
				ep.Send4(1, 0, uint32(i), 0, 0, 0)
			}
			for ep.Outstanding() > 0 {
				ep.WaitIncoming()
				ep.Extract()
			}
		})
		if err := c.Run(); err != nil {
			t.Fatal(err)
		}
		return c.K.Now()
	}
	plain, interp := run(false), run(true)
	if interp <= plain {
		t.Errorf("interpretation (%v) not slower than plain (%v)", interp, plain)
	}
}

// TestFrameResizeKeepsLANaiBudget: WithFrame must always produce a
// config whose LANai queues fit the 128KB card.
func TestFrameResizeKeepsLANaiBudget(t *testing.T) {
	p := cost.Default()
	for _, payload := range []int{4, 64, 128, 600, 1024, 4096, 16384} {
		cfg := core.DefaultConfig().WithFrame(payload)
		qc := cfg.Queues(p)
		// Constructing the device panics if the budget is exceeded; use
		// a cluster to exercise the real path.
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Errorf("payload %d: %v", payload, r)
				}
			}()
			cluster.NewFM(2, cfg, p)
		}()
		if qc.FrameBytes != payload+p.FMHeaderBytes {
			t.Errorf("payload %d: frame bytes %d", payload, qc.FrameBytes)
		}
	}
}

// TestLatencyHistogramRecordsRejectionTail: every delivery is recorded,
// and rejection+retransmission visibly stretches the distribution's tail
// relative to its median. Messages are timed the way the workload
// drivers time them: the sender stamps the send instant into the
// payload and the handler records the difference.
func TestLatencyHistogramRecordsRejectionTail(t *testing.T) {
	cfg := core.DefaultConfig()
	cfg.HostRecvSlots = 16
	cfg.RejectThreshold = 4
	cfg.DrainLimit = 1
	cfg.RetryDelay = 30 * sim.Microsecond
	c := cluster.NewFM(2, cfg, cost.Default())
	const n = 150

	var h stats.Histogram
	c.Start(1, func(ep *core.Endpoint) {
		ep.RegisterHandler(0, func(_ int, payload []byte) {
			h.Record(ep.Now().Sub(sim.Time(binary.LittleEndian.Uint64(payload))))
			ep.CPU().Advance(30 * sim.Microsecond)
		})
		for h.Count() < n {
			ep.WaitIncoming()
			ep.Extract()
		}
		ep.Extract()
	})
	c.Start(0, func(ep *core.Endpoint) {
		var buf [8]byte
		for i := 0; i < n; i++ {
			binary.LittleEndian.PutUint64(buf[:], uint64(ep.Now()))
			if err := ep.Send(1, 0, buf[:]); err != nil {
				t.Error(err)
				return
			}
		}
		for ep.Outstanding() > 0 {
			ep.WaitIncoming()
			ep.Extract()
		}
	})
	if err := c.Run(); err != nil {
		t.Fatal(err)
	}
	if h.Count() != n {
		t.Fatalf("histogram has %d samples, want %d", h.Count(), n)
	}
	if c.EPs[0].Stats().Retransmits == 0 {
		t.Fatal("scenario produced no retransmissions")
	}
	p50, p99 := h.Percentile(0.5), h.Percentile(0.99)
	if p99 < 2*p50 {
		t.Errorf("rejection should stretch the tail: p50=%v p99=%v", p50, p99)
	}
}
