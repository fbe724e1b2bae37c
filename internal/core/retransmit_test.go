package core_test

import (
	"strings"
	"testing"

	"fm/internal/cluster"
	"fm/internal/core"
	"fm/internal/cost"
	"fm/internal/myrinet"
	"fm/internal/sim"
)

// Direct unit tests for the endpoint's resilience paths: a fabric
// bounce (fault-generated Reject) must park the frame and resend it
// after the retry backoff, bounced acknowledgements must be resent as
// acknowledgements, and the (src, seq) screen must swallow a duplicate
// delivery without running the handler twice.

// faultedPair builds a 2-node FM cluster on a crossbar with the given
// fault timeline installed.
func faultedPair(cfg core.Config, p *cost.Params, ws []myrinet.FaultWindow) *cluster.FM {
	return cluster.NewFMFrom(func(k *sim.Kernel, p *cost.Params) *myrinet.Fabric {
		f := myrinet.NewCrossbar(k, p, 2, 8)
		f.ApplyFaults(ws)
		return f
	}, cfg, p)
}

// settlePoll keeps a rank alive servicing late bounces until `until`.
func settlePoll(ep *core.Endpoint, until sim.Time) {
	for ep.Now() < until {
		ep.CPU().Advance(10 * sim.Microsecond)
		ep.Extract()
	}
}

// TestNetBounceTimeoutResend: the receiver's interface dies mid-burst.
// Every frame addressed to it during the outage comes back as a fabric
// bounce; the sender must requeue each one, wait out RetryDelay, resend,
// and end with every message delivered exactly once.
func TestNetBounceTimeoutResend(t *testing.T) {
	cfg := core.DefaultConfig()
	cfg.RetryDelay = 15 * sim.Microsecond
	p := cost.Default()
	// Node 1's interface is down 5-80us: long enough that several of the
	// sender's frames (and some of the receiver's acks) bounce.
	ws := []myrinet.FaultWindow{{Kind: myrinet.NodeFault, Index: 1,
		Start: sim.Time(5 * sim.Microsecond), End: sim.Time(80 * sim.Microsecond)}}
	c := faultedPair(cfg, p, ws)

	const n = 40
	settle := sim.Time(80*sim.Microsecond + 8*15*sim.Microsecond + 200*sim.Microsecond)
	recv := 0
	c.Start(1, func(ep *core.Endpoint) {
		ep.RegisterHandler(0, func(src int, payload []byte) { recv++ })
		for recv < n {
			ep.WaitIncoming()
			ep.Extract()
		}
		settlePoll(ep, settle)
	})
	c.Start(0, func(ep *core.Endpoint) {
		for i := 0; i < n; i++ {
			ep.Send4(1, 0, uint32(i), 0, 0, 0)
		}
		for ep.Outstanding() > 0 {
			ep.WaitIncoming()
			ep.Extract()
		}
		settlePoll(ep, settle)
	})
	if err := c.Run(); err != nil {
		t.Fatal(err)
	}
	if recv != n {
		t.Fatalf("received %d/%d", recv, n)
	}
	sst, rst := c.EPs[0].Stats(), c.EPs[1].Stats()
	if sst.NetBounces == 0 {
		t.Fatal("no frames bounced: the outage missed the burst")
	}
	if sst.Retransmits == 0 {
		t.Fatal("bounced frames were never retransmitted")
	}
	if sst.Duplicates != 0 || rst.Duplicates != 0 {
		t.Fatalf("duplicates delivered: sender %d receiver %d", sst.Duplicates, rst.Duplicates)
	}
	if fs := c.Fab.FaultStats(); fs.NodeDowns != 1 || fs.Recoveries != 1 {
		t.Fatalf("fault toggles = %+v, want one down and one recovery", fs)
	}
	if c.Fab.PendingStranded() != 0 {
		t.Fatalf("%d frames stranded", c.Fab.PendingStranded())
	}
}

// TestBouncedAckResentAsAck: the *receiver's* standalone acknowledgements
// are what bounce (its interface dies after the data has arrived). A
// bounced Ack must be requeued and resent as an Ack — not mutated into a
// data retransmit — or the sender's window never drains.
func TestBouncedAckResentAsAck(t *testing.T) {
	cfg := core.DefaultConfig()
	cfg.PiggybackAcks = false // force standalone acks
	cfg.AckBatch = 1          // ack every packet immediately
	cfg.RetryDelay = 15 * sim.Microsecond
	p := cost.Default()
	// The outage opens a little after the data burst lands, so the
	// bursts of standalone acks are what cross the dead interface.
	ws := []myrinet.FaultWindow{{Kind: myrinet.NodeFault, Index: 0,
		Start: sim.Time(8 * sim.Microsecond), End: sim.Time(60 * sim.Microsecond)}}
	c := faultedPair(cfg, p, ws)

	const n = 30
	settle := sim.Time(60*sim.Microsecond + 8*15*sim.Microsecond + 200*sim.Microsecond)
	recv := 0
	c.Start(1, func(ep *core.Endpoint) {
		ep.RegisterHandler(0, func(src int, payload []byte) { recv++ })
		for recv < n {
			ep.WaitIncoming()
			ep.Extract()
		}
		settlePoll(ep, settle)
	})
	c.Start(0, func(ep *core.Endpoint) {
		for i := 0; i < n; i++ {
			ep.Send4(1, 0, uint32(i), 0, 0, 0)
		}
		for ep.Outstanding() > 0 {
			ep.WaitIncoming()
			ep.Extract()
		}
		settlePoll(ep, settle)
	})
	if err := c.Run(); err != nil {
		t.Fatal(err)
	}
	if recv != n {
		t.Fatalf("received %d/%d", recv, n)
	}
	rst := c.EPs[1].Stats()
	if rst.NetBounces == 0 {
		t.Fatal("no acknowledgement bounced: the outage missed the ack stream")
	}
	if out := c.EPs[0].Outstanding(); out != 0 {
		t.Fatalf("sender still has %d outstanding: bounced acks never arrived", out)
	}
	if c.Fab.PendingStranded() != 0 {
		t.Fatalf("%d frames stranded", c.Fab.PendingStranded())
	}
}

// TestDuplicateDeliveryScreened forges wire-level duplicates — the same
// (src, seq) delivered twice — and checks the endpoint's screen drops
// them: each source's handler runs once, Duplicates counts each forged
// copy. Two senders each open with seq 1 into node 1, so a screen keyed
// on seq alone would also drop the second sender's original. Under the
// real protocol duplicates cannot happen (a frame is accepted or
// rejected, never both), so the screen can only be exercised by
// injecting them by hand.
func TestDuplicateDeliveryScreened(t *testing.T) {
	cfg := core.DefaultConfig()
	cfg.CheckInvariants = false // the forged duplicates must count, not panic
	p := cost.Default()
	c := cluster.NewFM(3, cfg, p)

	// Forge a second copy of each sender's first message (seq 1) well
	// after the originals have been delivered and acknowledged.
	senders := []int{0, 2}
	fab := c.Fab
	for i, src := range senders {
		c.K.AtArg(sim.Time(200*sim.Microsecond+sim.Duration(i)*10*sim.Microsecond), func(any) {
			pkt := fab.NewPacket()
			pkt.Src, pkt.Dst = src, 1
			pkt.Type = myrinet.Retransmit
			pkt.Handler = 0
			pkt.Seq = 1 // ep.Send assigns 1 to the first packet
			pkt.HeaderBytes = p.FMHeaderBytes
			pkt.SetPayload(make([]byte, 16))
			fab.Inject(pkt)
		}, nil)
	}

	recv := map[int]int{}
	c.Start(1, func(ep *core.Endpoint) {
		ep.RegisterHandler(0, func(src int, payload []byte) { recv[src]++ })
		// Serve the originals, then stay alive past the forged copies.
		for len(recv) < len(senders) {
			ep.WaitIncoming()
			ep.Extract()
		}
		settlePoll(ep, sim.Time(300*sim.Microsecond))
	})
	for _, src := range senders {
		c.Start(src, func(ep *core.Endpoint) {
			ep.Send4(1, 0, 7, 0, 0, 0)
			for ep.Outstanding() > 0 {
				ep.WaitIncoming()
				ep.Extract()
			}
			settlePoll(ep, sim.Time(300*sim.Microsecond))
		})
	}
	if err := c.Run(); err != nil {
		t.Fatal(err)
	}
	for _, src := range senders {
		if recv[src] != 1 {
			t.Errorf("handler ran %d times for source %d, want exactly once", recv[src], src)
		}
	}
	rst := c.EPs[1].Stats()
	if rst.Duplicates != 2 {
		t.Fatalf("Duplicates = %d, want both forged copies screened", rst.Duplicates)
	}
	if rst.Delivered != 2 {
		t.Fatalf("Delivered = %d, want 2", rst.Delivered)
	}
}

// TestScreenKeyLimit forges a frame whose seq does not fit the screen's
// 32-bit half: truncating it into the key would alias another frame's
// key, so the run must fail and name the limit instead.
func TestScreenKeyLimit(t *testing.T) {
	p := cost.Default()
	c := cluster.NewFM(2, core.DefaultConfig(), p)
	fab := c.Fab
	c.K.AtArg(sim.Time(10*sim.Microsecond), func(any) {
		pkt := fab.NewPacket()
		pkt.Src, pkt.Dst = 0, 1
		pkt.Type = myrinet.Data
		pkt.Seq = 1 << 32
		pkt.HeaderBytes = p.FMHeaderBytes
		pkt.SetPayload(make([]byte, 16))
		fab.Inject(pkt)
	}, nil)
	recv := 0
	c.Start(1, func(ep *core.Endpoint) {
		ep.RegisterHandler(0, func(int, []byte) { recv++ })
		for recv < 1 {
			ep.WaitIncoming()
			ep.Extract()
		}
	})
	err := c.Run()
	const want = "does not fit the duplicate screen's key"
	if err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("Run() = %v, want a failure naming %q (handler ran %d times)", err, want, recv)
	}
	if recv != 0 {
		t.Fatalf("handler ran %d times on a frame the screen cannot key", recv)
	}
}
