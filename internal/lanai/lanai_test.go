package lanai

import (
	"testing"

	"fm/internal/cost"
	"fm/internal/myrinet"
	"fm/internal/sbus"
	"fm/internal/sim"
)

func newDev(t *testing.T, qc QueueConfig) (*sim.Kernel, *Device) {
	t.Helper()
	k := sim.NewKernel()
	p := cost.Default()
	fab := myrinet.NewCrossbar(k, p, 2, 8)
	d := New(k, p, sbus.New(k, p, "bus"), fab, 0, qc)
	New(k, p, sbus.New(k, p, "bus1"), fab, 1, qc) // peer sink
	return k, d
}

func TestMemoryBudgetEnforced(t *testing.T) {
	qc := DefaultQueues(616)
	qc.SendSlots = 200
	qc.RecvSlots = 200 // 400 * 616 B ~= 246 KB > 128 KB
	defer func() {
		if recover() == nil {
			t.Error("oversized queues did not panic")
		}
	}()
	newDev(t, qc)
}

func TestDefaultQueuesFitAnyPaperFrame(t *testing.T) {
	for _, frame := range []int{16, 144, 616, 1040} {
		qc := DefaultQueues(frame)
		if fp := qc.lanaiFootprint(); fp > MemoryBytes {
			t.Errorf("frame %d: footprint %d exceeds card memory", frame, fp)
		}
	}
}

func TestArriveBackpressure(t *testing.T) {
	k, d := newDev(t, DefaultQueues(144))
	k.At(0, func() {
		for i := 0; i < 5; i++ {
			d.Arrive(&myrinet.Packet{Src: 1, Dst: 0, Seq: uint64(i), HeaderBytes: 16})
		}
		if !d.RxAvailable() {
			t.Error("expected staged packets")
		}
	})
	k.At(sim.Time(sim.Us(1)), func() {
		// Pops admit the stalled arrivals in order.
		for i := 0; i < 5; i++ {
			if got := d.PopRx().Seq; got != uint64(i) {
				t.Errorf("pop %d returned seq %d", i, got)
			}
		}
		if d.RxAvailable() {
			t.Error("channel should be empty")
		}
	})
	if err := k.RunAll(); err != nil {
		t.Fatal(err)
	}
	if d.Stats().NetStalls != 3 {
		t.Errorf("stalls = %d, want 3", d.Stats().NetStalls)
	}
}

func TestHostRecvFreeIsConservative(t *testing.T) {
	qc := DefaultQueues(144)
	qc.HostRecvSlots = 4
	k, d := newDev(t, qc)
	k.At(0, func() {
		if d.HostRecvFree() != 4 {
			t.Errorf("initial free = %d", d.HostRecvFree())
		}
		d.DeliverToHost([]*myrinet.Packet{{Src: 1, Dst: 0, HeaderBytes: 16}})
		d.DeliverToHost([]*myrinet.Packet{{Src: 1, Dst: 0, HeaderBytes: 16}})
		// Two delivered, host has not refreshed its counter.
		if d.HostRecvFree() != 2 {
			t.Errorf("free = %d, want 2", d.HostRecvFree())
		}
		d.HostUpdateRecvConsumed(2)
		if d.HostRecvFree() != 4 {
			t.Errorf("free after refresh = %d, want 4", d.HostRecvFree())
		}
	})
	if err := k.RunAll(); err != nil {
		t.Fatal(err)
	}
}

func TestDeliverToHostCompletionAndOrder(t *testing.T) {
	k, d := newDev(t, DefaultQueues(144))
	p1 := &myrinet.Packet{Src: 1, Dst: 0, Seq: 1, HeaderBytes: 16, Payload: make([]byte, 100)}
	p2 := &myrinet.Packet{Src: 1, Dst: 0, Seq: 2, HeaderBytes: 16}
	var end sim.Time
	k.At(0, func() {
		end = d.DeliverToHost([]*myrinet.Packet{p1, p2})
		if !d.HostRecvQ.Empty() {
			t.Error("packets visible before DMA completion")
		}
	})
	if err := k.RunAll(); err != nil {
		t.Fatal(err)
	}
	// 116 + 16 wire bytes at the SBus DMA rate plus startup.
	want := sim.Time(d.P.SBusDMATime(132))
	if end != want {
		t.Errorf("completion at %v, want %v", end, want)
	}
	if d.HostRecvQ.Len() != 2 || d.HostRecvQ.Pop().Seq != 1 {
		t.Error("delivery order broken")
	}
	if d.Stats().HostDMABatches != 1 || d.Stats().HostDMAPackets != 2 {
		t.Errorf("stats = %+v", d.Stats())
	}
}

func TestDeliverEmptyBatchPanics(t *testing.T) {
	k, d := newDev(t, DefaultQueues(144))
	k.At(0, func() {
		defer func() {
			if recover() == nil {
				t.Error("empty batch did not panic")
			}
		}()
		d.DeliverToHost(nil)
	})
	if err := k.RunAll(); err != nil {
		t.Fatal(err)
	}
}

func TestPullFromHostFreesStagingOnCompletion(t *testing.T) {
	k, d := newDev(t, DefaultQueues(144))
	pkt := &myrinet.Packet{Src: 0, Dst: 1, HeaderBytes: 16, Payload: make([]byte, 64)}
	freed := false
	k.Spawn("watch", func(pr *sim.Proc) {
		pr.Wait(d.SendFreed)
		freed = true
		if !d.HostOutQ.Empty() {
			t.Error("staging not freed at pulse")
		}
	})
	k.At(0, func() {
		d.HostOutQ.Push(pkt)
		got, ready := d.PullFromHost()
		if got != pkt {
			t.Error("pulled wrong packet")
		}
		if ready != sim.Time(d.P.SBusDMATime(80)) {
			t.Errorf("ready at %v", ready)
		}
	})
	if err := k.RunAll(); err != nil {
		t.Fatal(err)
	}
	if !freed {
		t.Error("SendFreed never pulsed")
	}
}

func TestSyntheticGenerator(t *testing.T) {
	k, d := newDev(t, DefaultQueues(144))
	k.At(0, func() {
		d.SetSynthetic(2, 32)
		if !d.SyntheticPending() {
			t.Fatal("no synthetic work")
		}
		p := d.NextSynthetic(1)
		if p.Dst != 1 || len(p.Payload) != 32 || p.HeaderBytes != d.P.FMHeaderBytes {
			t.Errorf("synthetic packet %+v", p)
		}
		d.NextSynthetic(1)
		if d.SyntheticPending() {
			t.Error("count not exhausted")
		}
		d.AddSynthetic(1)
		if !d.SyntheticPending() {
			t.Error("AddSynthetic had no effect")
		}
	})
	if err := k.RunAll(); err != nil {
		t.Fatal(err)
	}
}
