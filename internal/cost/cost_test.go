package cost

import (
	"testing"

	"fm/internal/sim"
)

func TestAppendixAConstants(t *testing.T) {
	p := Default()
	// Appendix A: DMA setup = 8 cycles * 40 ns = 320 ns.
	if p.DMASetup != sim.Ns(320) {
		t.Errorf("DMASetup = %v, want 320ns", p.DMASetup)
	}
	if got := 8 * p.LANaiCycle; got != p.DMASetup {
		t.Errorf("DMASetup %v != 8 cycles %v", p.DMASetup, got)
	}
	// Appendix A: 12.5 ns/byte.
	if p.LinkByte != sim.NsF(12.5) {
		t.Errorf("LinkByte = %v", p.LinkByte)
	}
	// "spooling a packet of 128 bytes over the channel takes 1.6us"
	if got := p.LinkTime(128); got != sim.Us(1)+sim.Ns(600) {
		t.Errorf("LinkTime(128) = %v, want 1.6us", got)
	}
	if p.SwitchLatency != sim.Ns(550) {
		t.Errorf("SwitchLatency = %v", p.SwitchLatency)
	}
}

func TestLinkBandwidthIs76MiB(t *testing.T) {
	p := Default()
	// 1 MiB over the link should take 2^20 * 12.5 ns = 13.107 ms,
	// i.e. 76.3 MiB/s.
	d := p.LinkTime(1 << 20)
	mibps := 1.0 / d.Seconds()
	if mibps < 76 || mibps > 77 {
		t.Errorf("link bandwidth = %.2f MiB/s, want ~76.3", mibps)
	}
}

func TestPIOBandwidthNear23MB(t *testing.T) {
	p := Default()
	// Pure double-word stores: 8 B / 320 ns = 25 MB/s decimal; with the
	// copy-loop overhead the delivered rate must sit a little above the
	// paper's 21.2 MB/s layer-level figure and below the 23.9 MB/s pure
	// store maximum.
	d := p.PIOTime(1 << 20)
	mibps := 1.0 / d.Seconds()
	if mibps < 19.5 || mibps > 24.5 {
		t.Errorf("PIO bandwidth = %.2f MiB/s, want ~22-24", mibps)
	}
}

func TestMemcpyBandwidthNear34MB(t *testing.T) {
	p := Default()
	d := p.MemcpyTime(1 << 20)
	mibps := 1.0 / d.Seconds()
	if mibps < 32 || mibps > 36 {
		t.Errorf("memcpy bandwidth = %.2f MiB/s, want ~34", mibps)
	}
}

func TestSBusDMABandwidthInRange(t *testing.T) {
	p := Default()
	d := p.SBusDMATime(1 << 20)
	mibps := 1.0 / d.Seconds()
	if mibps < 40 || mibps > 54 {
		t.Errorf("SBus DMA bandwidth = %.2f MiB/s, want 40-54", mibps)
	}
}

func TestInstr(t *testing.T) {
	p := Default()
	// One instruction = 3.5 cycles * 40 ns = 140 ns.
	if got := p.Instr(1); got != sim.Ns(140) {
		t.Errorf("Instr(1) = %v, want 140ns", got)
	}
	if got := p.Instr(10); got != sim.NsF(1400) {
		t.Errorf("Instr(10) = %v", got)
	}
}

func TestBaselineLCPOverheadNearT0(t *testing.T) {
	p := Default()
	// Table 4: baseline t0 = 4.2 us = send instructions + DMA setup.
	t0 := p.Instr(p.LCPBaselineSendInstr) + p.DMASetup
	if t0 < sim.NsF(3900) || t0 > sim.NsF(4500) {
		t.Errorf("baseline LCP t0 = %v, want ~4.2us", t0)
	}
	// Streamed t0 = 3.5 us.
	t0s := p.Instr(p.LCPStreamedSendInstr) + p.DMASetup
	if t0s < sim.NsF(3200) || t0s > sim.NsF(3800) {
		t.Errorf("streamed LCP t0 = %v, want ~3.5us", t0s)
	}
	if t0s >= t0 {
		t.Error("streamed must be cheaper than baseline")
	}
}

func TestVariants(t *testing.T) {
	p := Default()
	b := p.WithBurstPIO()
	if b.SBusPIOWord8 >= p.SBusPIOWord8 {
		t.Error("burst PIO did not speed up stores")
	}
	if p.SBusPIOWord8 != sim.Ns(320) {
		t.Error("WithBurstPIO mutated the receiver")
	}
	f := p.WithFasterLANai(2)
	if f.Instr(10) != p.Instr(10)/2 {
		t.Errorf("faster LANai: %v vs %v", f.Instr(10), p.Instr(10))
	}
}

func TestCloneIsDeep(t *testing.T) {
	p := Default()
	q := p.Clone()
	q.LinkByte = 1
	if p.LinkByte == 1 {
		t.Error("Clone shares state")
	}
}

func TestPIOTimeRoundsUpToWords(t *testing.T) {
	p := Default()
	if p.PIOTime(1) != p.PIOTime(8) {
		t.Error("1 byte and 8 bytes should both cost one double-word")
	}
	if p.PIOTime(9) != 2*(p.SBusPIOWord8+p.SBusPIOLoop) {
		t.Error("9 bytes should cost two double-words")
	}
	if p.PIOTime(0) != 0 {
		t.Error("zero bytes should be free")
	}
}
