// Package sbus models the SPARCstation's I/O bus, the bottleneck resource
// of the whole system (paper Sections 2 and 4.3).
//
// The SBus carries two kinds of traffic, arbitrated FIFO: processor-
// mediated accesses (programmed double-word stores into LANai memory at
// 23.9 MB/s max, expensive uncached status reads) and burst-mode DMA
// initiated by the LANai (40-54 MB/s). The asymmetry between those two
// rates is what forces the paper's hybrid architecture: host stores
// outbound, DMA inbound.
package sbus

import (
	"fm/internal/cost"
	"fm/internal/sim"
)

// Stats counts bus traffic by category.
type Stats struct {
	PIOBytes    uint64
	DMABytes    uint64
	StatusReads uint64
	CtrlWrites  uint64
}

// Bus is one node's SBus. Host-side operations block the calling host
// process; DMA reservations are non-blocking and used by the LANai's
// engines from event context.
type Bus struct {
	k     *sim.Kernel
	p     *cost.Params
	res   *sim.Resource
	stats Stats
}

// New creates a bus for one node.
func New(k *sim.Kernel, p *cost.Params, name string) *Bus {
	return NewAt(new(Bus), k, p, name)
}

// NewAt initializes a bus in caller-provided storage and returns it.
// The cluster layer allocates every node's full stack in one slice
// (cluster.nodeStack); NewAt is the in-place form New wraps.
func NewAt(b *Bus, k *sim.Kernel, p *cost.Params, name string) *Bus {
	*b = Bus{k: k, p: p, res: sim.NewResource(k, name)}
	return b
}

// Stats returns a copy of the traffic counters.
func (b *Bus) Stats() Stats { return b.stats }

// Utilization returns the fraction of virtual time the bus was busy.
func (b *Bus) Utilization() float64 { return b.res.Utilization() }

// PIOWrite copies n bytes into LANai memory with programmed double-word
// stores, blocking the host process for the full copy (the host processor
// is the data mover; paper Section 4.3).
func (b *Bus) PIOWrite(hp *sim.Proc, n int) {
	if n <= 0 {
		return
	}
	b.stats.PIOBytes += uint64(n)
	hp.Use(b.res, b.p.PIOTime(n))
}

// StatusRead models the host reading a LANai status or counter field:
// "reading a network interface status field requires ~15 processor
// cycles" (Section 2).
func (b *Bus) StatusRead(hp *sim.Proc) {
	b.stats.StatusReads++
	hp.Use(b.res, b.p.SBusStatusRead)
}

// ControlWrite models a single uncached host store into LANai memory
// (counter updates and doorbells).
func (b *Bus) ControlWrite(hp *sim.Proc) {
	b.stats.CtrlWrites++
	hp.Use(b.res, b.p.SBusControlWrite)
}

// DMA books an n-byte burst transfer on the bus, starting no earlier than
// `earliest`, and returns the transfer's time bounds. It does not block:
// the LANai's DMA engines call it from event context and schedule their
// completion events at `end`.
func (b *Bus) DMA(earliest sim.Time, n int) (start, end sim.Time) {
	b.stats.DMABytes += uint64(n)
	return b.res.ReserveAt(earliest, b.p.SBusDMATime(n))
}
