package core_test

import (
	"testing"

	"fm/internal/cluster"
	"fm/internal/core"
	"fm/internal/cost"
	"fm/internal/sim"
)

// The endpoint charges its private host work and pays it before any
// touch of shared state (DESIGN.md "Self-driving processes on
// coroutines"). These tests fail when a pay the rule requires goes
// missing on a path the pinned drives do not reach.

// TestHandlerRunsAfterItsCharges: a handler that touches shared state
// without reading the clock (it pulses a signal another process waits
// on) must still run at the host's own instant, after every per-packet
// charge of its delivery.
func TestHandlerRunsAfterItsCharges(t *testing.T) {
	p := cost.Default()
	c := cluster.NewFM(2, core.DefaultConfig(), p)
	seen := sim.NewSignal(c.K)
	payload := make([]byte, 64)
	var arrived, woke sim.Time
	c.K.Spawn("watcher", func(w *sim.Proc) {
		w.Wait(seen)
		woke = w.Now()
	})
	c.Start(1, func(ep *core.Endpoint) {
		ep.RegisterHandler(0, func(int, []byte) { seen.Pulse() })
		ep.WaitIncoming()
		arrived = ep.Now()
		ep.Extract()
	})
	c.Start(0, func(ep *core.Endpoint) {
		if err := ep.Send(1, 0, payload); err != nil {
			t.Error(err)
		}
	})
	if err := c.Run(); err != nil {
		t.Fatal(err)
	}
	// The first frame carries no acknowledgement, so its delivery
	// charges the poll, the dequeue, buffer management, flow control,
	// the payload read and the dispatch.
	want := arrived.Add(p.HostExtractPoll + p.HostExtractPacket + p.HostBufMgmtRecv + p.HostFlowControlRecv +
		sim.Duration(len(payload))*p.HostMemReadByte + p.HostHandlerDispatch)
	if woke != want {
		t.Fatalf("the handler's pulse woke the watcher at %v, want %v (frame in the host queue at %v)", woke, want, arrived)
	}
}

// TestVestigialSendPollsAfterItsCharge: without buffer management the
// host polls the LANai send queue itself, so the poll must wait until
// the send call's charge is paid. With a one-slot queue and a send call
// longer than the LANai takes to inject a frame, every poll then finds
// the slot free, and each Send costs exactly its call, its programmed-
// I/O copy and its doorbell write. A poll at the start of the call
// would find the previous frame still queued and wait for a SendFreed
// pulse that fired during the charge.
func TestVestigialSendPollsAfterItsCharge(t *testing.T) {
	p := cost.Default()
	p.HostSendCall = 10 * sim.Microsecond
	cfg := core.VestigialConfig(core.Hybrid)
	cfg.SendSlots = 1
	c := cluster.NewFM(2, cfg, p)
	const n = 20
	buf := make([]byte, 128)
	recv := 0
	c.Start(1, func(ep *core.Endpoint) {
		ep.RegisterHandler(0, func(int, []byte) { recv++ })
		for recv < n {
			ep.WaitIncoming()
			ep.Extract()
		}
	})
	each := p.HostSendCall + p.PIOTime(len(buf)+p.FMHeaderBytes) + p.SBusControlWrite
	c.Start(0, func(ep *core.Endpoint) {
		for i := 1; i <= n; i++ {
			if err := ep.Send(1, 0, buf); err != nil {
				t.Error(err)
			}
			if want := sim.Time(i) * sim.Time(each); ep.Now() != want {
				t.Fatalf("send %d returned at %v, want %v: it waited for the send queue", i, ep.Now(), want)
			}
		}
	})
	if err := c.Run(); err != nil {
		t.Fatal(err)
	}
}
