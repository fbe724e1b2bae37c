// Package cost gathers every calibrated hardware constant used by the
// simulation in a single Params struct.
//
// The defaults reproduce the 1995 platform the paper measures: SPARCstation
// 10/20 hosts, the SBus I/O bus, Myrinet LANai 2.3 interface cards, and an
// 8-port Myrinet switch. Each constant is traceable to a specific statement
// in the paper (Section 2, Section 4, or Appendix A); the comment on each
// field cites its source. Named variants expose the hardware what-ifs from
// the paper's Discussion and Conclusion (burst-mode programmed I/O, a
// faster LANai).
package cost

import "fm/internal/sim"

// Params is the full hardware cost model. All durations are virtual time.
type Params struct {
	// ---- Myrinet link and switch (Section 2, Appendix A) ----

	// LinkBytePS is the time to move one byte over a Myrinet channel:
	// 12.5 ns/byte, i.e. 76.3 MiB/s ("spooling a packet of 128 bytes over
	// the channel takes 1.6us").
	LinkByte sim.Duration

	// SwitchLatency is the total latency a packet head incurs crossing
	// one Myrinet switch (Appendix A: t_switch = 550 ns).
	SwitchLatency sim.Duration

	// ---- LANai processor (Section 2, Appendix A) ----

	// LANaiCycle is one LANai clock cycle: the LANai runs at the SBus
	// clock (20-25 MHz); we use 25 MHz => 40 ns (Appendix A).
	LANaiCycle sim.Duration

	// LANaiCPI is the average cycles per LANai instruction ("executing
	// one instruction every 3-4 cycles"); we use 3.5.
	LANaiCPI float64

	// DMASetup is the LANai's cost to set up any of its three DMA
	// engines (Appendix A: 8 cycles = 320 ns).
	DMASetup sim.Duration

	// ---- LCP loop structure costs, in LANai instructions ----
	// These calibrate Figure 3: the baseline loop's per-packet overhead
	// yields t0 = 4.2 us and the streamed loop's t0 = 3.5 us (Table 4).
	// One instruction is LANaiCycle*LANaiCPI = 140 ns, so the baseline's
	// ~3.9 us of non-DMA-setup overhead is ~28 instructions and the
	// streamed loop's ~3.2 us is ~23.

	// LCPBaselineSendInstr is the per-packet instruction count on the
	// send side of the baseline loop (condition checks for both
	// directions, pointer updates, completion wait, loop branch).
	LCPBaselineSendInstr int

	// LCPBaselineRecvInstr is the receive-side equivalent.
	LCPBaselineRecvInstr int

	// LCPStreamedSendInstr is the per-packet send cost inside the
	// streamed loop's inner while (consolidated checks).
	LCPStreamedSendInstr int

	// LCPStreamedRecvInstr is the receive-side equivalent.
	LCPStreamedRecvInstr int

	// LCPIdleRecheckInstr is the cost of one empty trip around the main
	// loop; it is charged when the LCP wakes to new work, modeling the
	// polling loop's detection latency.
	LCPIdleRecheckInstr int

	// LCPInterpretInstr is the extra per-packet cost of the switch()
	// statement simulating packet interpretation in the receive inner
	// loop (Section 4.4 / Figure 7).
	LCPInterpretInstr int

	// LCPFMExtraInstr is the extra per-packet bookkeeping the full FM
	// LCP performs versus the vestigial streamed loop (queue wrap
	// handling, host-queue pointer maintenance).
	LCPFMExtraInstr int

	// LCPHostDMASetupInstr is the instruction cost to set up a host DMA
	// (aggregation scan plus descriptor write), beyond DMASetup.
	LCPHostDMASetupInstr int

	// ---- SBus (Section 2, Section 4.3) ----

	// SBusPIOWord8 is the cost of one double-word (8-byte) programmed
	// store across the SBus into LANai memory. "Using double-word writes
	// achieves a maximum of 23.9 MB/s": 8 B / 23.9 MiB/s ~= 319 ns; we
	// round to 320 ns.
	SBusPIOWord8 sim.Duration

	// SBusPIOLoopInstr is the host-side per-double-word overhead of the
	// copy loop (load from user buffer, address update); it is what
	// separates delivered payload bandwidth (~21.2 MB/s, Table 4) from
	// the pure store maximum (23.9 MB/s).
	SBusPIOLoop sim.Duration

	// SBusStatusRead is the cost for the host to read a LANai status or
	// counter field across the SBus ("~15 processor cycles" at 50 MHz =
	// 300 ns).
	SBusStatusRead sim.Duration

	// SBusControlWrite is an uncached single-word host store to LANai
	// memory (counter updates, doorbells).
	SBusControlWrite sim.Duration

	// SBusDMAByte is the per-byte cost of an SBus burst-mode DMA
	// transfer ("40-54 MB/s for large transfers"); we use 50 MiB/s =
	// 19.07 ns/B, rounded to 19 ns.
	SBusDMAByte sim.Duration

	// SBusDMAStartup is the fixed SBus-side cost to begin a burst DMA
	// (arbitration and address cycle), in addition to the LANai's
	// DMASetup.
	SBusDMAStartup sim.Duration

	// ---- Host processor and memory (Section 2) ----

	// HostMemcpyByte is the per-byte cost of a host memory-to-memory
	// copy (user buffer -> pinned DMA region). With 80 MB/s reads and
	// 60 MB/s writes the effective copy rate is 1/(1/80+1/60) ~= 34.3
	// MiB/s => ~29.2 ns/B; this is what caps the all-DMA path at
	// r_inf = 33 MB/s (Table 4).
	HostMemcpyByte sim.Duration

	// HostMemReadByte is the per-byte cost for the host to read a
	// received packet out of the DMA region (cached reads ~80 MiB/s).
	HostMemReadByte sim.Duration

	// HostSendCall is the fixed host software cost of an FM_send /
	// FM_send_4 call before any data movement (argument marshaling,
	// queue-space check against the cached counter, header build).
	HostSendCall sim.Duration

	// HostExtractPoll is the fixed host cost of one FM_extract poll
	// that finds nothing (read of the host receive queue status word in
	// host memory plus call overhead).
	HostExtractPoll sim.Duration

	// HostExtractPacket is the per-packet host cost of dequeueing one
	// packet in FM_extract before the handler runs (pointer chase,
	// header parse, sort data vs. rejected packets).
	HostExtractPacket sim.Duration

	// HostHandlerDispatch is the cost of invoking a handler function
	// (indirect call plus prologue), excluding handler body time.
	HostHandlerDispatch sim.Duration

	// HostFlowControlSend is the extra per-packet host cost of
	// return-to-sender flow control on the send side (sequence
	// assignment, retaining the packet in the reject region).
	HostFlowControlSend sim.Duration

	// HostFlowControlRecv is the receive-side equivalent (ack
	// bookkeeping, duplicate screen).
	HostFlowControlRecv sim.Duration

	// HostAckBuild is the host cost to emit a standalone or piggybacked
	// acknowledgement.
	HostAckBuild sim.Duration

	// HostBufMgmtSend is the per-packet host cost of real send-side
	// buffer management (queue-space check against the cached LANai
	// counter, wrap handling) versus the vestigial fixed-buffer layer
	// (Section 4.4, Figure 7).
	HostBufMgmtSend sim.Duration

	// HostBufMgmtRecv is the receive-side equivalent (queue index
	// maintenance and the batched consumption-counter updates).
	HostBufMgmtRecv sim.Duration

	// ---- Myricom API comparator (Section 4.6, Table 3) ----

	// APISendFixed is the fixed per-message host cost of
	// myri_cmd_send_imm: kernel-style entry, buffer-pointer handshake
	// with the LANai (several SBus round trips), route lookup in the
	// automatically-maintained map, and in-order bookkeeping. Calibrates
	// t0 ~= 105 us.
	APISendFixed sim.Duration

	// APISendDMAExtra is the additional fixed cost of the DMA variant
	// (myri_cmd_send): pinning/copy into the DMA region handshake and a
	// second synchronization. Calibrates t0 ~= 121 us.
	APISendDMAExtra sim.Duration

	// APIChecksumByte is the per-byte checksum cost the API pays on send
	// and on receive (Table 3: "Message checksums").
	APIChecksumByte sim.Duration

	// APIRecvFixed is the fixed per-message receive-side host cost
	// (pointer handshake back to the LANai, ordered delivery queue).
	APIRecvFixed sim.Duration

	// APIDescriptorBlock is the scatter-gather descriptor size over
	// which APIDescriptorCost is charged.
	APIDescriptorBlock int

	// APIDescriptorCost is charged once per APIDescriptorBlock bytes,
	// modeling scatter-gather descriptor processing in the API's LCP;
	// it bends the API bandwidth curve and pushes n1/2 into the
	// thousands of bytes.
	APIDescriptorCost sim.Duration

	// APILCPExtraInstr is the extra per-packet instruction count in the
	// API's LCP versus FM's (checksum engine management, remap
	// housekeeping, multiplexed queues).
	APILCPExtraInstr int

	// APIPinPageCost is charged per touched page when the DMA variant
	// prepares a user buffer (pin + translate).
	APIPinPageCost sim.Duration

	// APIPageBytes is the page size for pinning.
	APIPageBytes int

	// APIRemapEvery and APIRemapCost model the API's automatic,
	// continuous network reconfiguration (Table 3): every APIRemapEvery
	// sends, the host stalls for APIRemapCost of mapping housekeeping.
	APIRemapEvery int
	APIRemapCost  sim.Duration

	// ---- Frame geometry ----

	// FMHeaderBytes is the wire overhead of an FM frame: route byte,
	// type, length, handler id, sequence number, piggybacked ack window.
	FMHeaderBytes int

	// APIHeaderBytes is the wire overhead of a Myrinet API message
	// (larger: route, type, scatter-gather count, checksum, ordering).
	APIHeaderBytes int
}

// Default returns the calibrated 1995 cost model described in the paper.
func Default() *Params {
	p := &Params{
		LinkByte:      sim.NsF(12.5),
		SwitchLatency: sim.Ns(550),
		LANaiCycle:    sim.Ns(40),
		LANaiCPI:      3.5,
		DMASetup:      sim.Ns(320),

		LCPBaselineSendInstr: 27,
		LCPBaselineRecvInstr: 24,
		LCPStreamedSendInstr: 22,
		LCPStreamedRecvInstr: 19,
		LCPIdleRecheckInstr:  6,
		LCPInterpretInstr:    30,
		LCPFMExtraInstr:      4,
		LCPHostDMASetupInstr: 6,

		SBusPIOWord8:     sim.Ns(320),
		SBusPIOLoop:      sim.Ns(56),
		SBusStatusRead:   sim.Ns(300),
		SBusControlWrite: sim.Ns(150),
		SBusDMAByte:      sim.Ns(19),
		SBusDMAStartup:   sim.Ns(200),

		HostMemcpyByte:      sim.NsF(29.2),
		HostMemReadByte:     sim.NsF(12.5),
		HostSendCall:        sim.Ns(900),
		HostExtractPoll:     sim.Ns(250),
		HostExtractPacket:   sim.Ns(700),
		HostHandlerDispatch: sim.Ns(200),
		HostFlowControlSend: sim.Ns(120),
		HostFlowControlRecv: sim.Ns(120),
		HostAckBuild:        sim.Ns(250),
		HostBufMgmtSend:     sim.Ns(150),
		HostBufMgmtRecv:     sim.Ns(120),

		APISendFixed:       sim.Us(96),
		APISendDMAExtra:    sim.Us(16),
		APIChecksumByte:    sim.NsF(12.5),
		APIRecvFixed:       sim.Us(8),
		APIDescriptorBlock: 512,
		APIDescriptorCost:  sim.Us(8),
		APILCPExtraInstr:   40,
		APIPinPageCost:     sim.Us(8),
		APIPageBytes:       4096,
		APIRemapEvery:      64,
		APIRemapCost:       sim.Us(150),

		FMHeaderBytes:  16,
		APIHeaderBytes: 28,
	}
	return p
}

// Instr converts an instruction count to LANai processor time.
func (p *Params) Instr(n int) sim.Duration {
	return sim.Duration(float64(n) * p.LANaiCPI * float64(p.LANaiCycle))
}

// LinkTime returns the channel occupancy of n wire bytes.
func (p *Params) LinkTime(n int) sim.Duration {
	return sim.Duration(n) * p.LinkByte
}

// PIOTime returns the host+SBus cost to programmed-I/O copy n bytes into
// LANai memory using double-word stores.
func (p *Params) PIOTime(n int) sim.Duration {
	words := (n + 7) / 8
	return sim.Duration(words) * (p.SBusPIOWord8 + p.SBusPIOLoop)
}

// SBusDMATime returns the SBus occupancy of an n-byte burst DMA.
func (p *Params) SBusDMATime(n int) sim.Duration {
	return p.SBusDMAStartup + sim.Duration(n)*p.SBusDMAByte
}

// MemcpyTime returns the host cost to copy n bytes memory-to-memory.
func (p *Params) MemcpyTime(n int) sim.Duration {
	return sim.Duration(n) * p.HostMemcpyByte
}

// Clone returns a deep copy of p, so variants can be derived without
// mutating shared defaults.
func (p *Params) Clone() *Params {
	q := *p
	return &q
}

// --- Named variants: the hardware what-ifs from Sections 5 and 6 ---

// WithBurstPIO returns a variant in which the MBus-SBus write buffer
// supports burst-mode programmed stores, giving PIO "DMA-like bandwidth
// into the network" (Conclusion). Double-word store cost drops to the
// burst DMA byte rate.
func (p *Params) WithBurstPIO() *Params {
	q := p.Clone()
	q.SBusPIOWord8 = 8 * q.SBusDMAByte
	q.SBusPIOLoop = sim.Ns(8)
	return q
}

// WithFasterLANai returns a variant with the LANai processor sped up by
// factor (Conclusion: "a moderately faster network interface processor").
// Factor 2 halves every LCP instruction cost.
func (p *Params) WithFasterLANai(factor float64) *Params {
	q := p.Clone()
	q.LANaiCPI = p.LANaiCPI / factor
	return q
}
