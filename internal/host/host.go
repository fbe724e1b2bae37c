// Package host models the workstation's processor as seen by a messaging
// layer: a simulated process that pays for memory copies, uncached SBus
// accesses, and fixed software overheads according to the cost model
// (paper Section 2).
//
// Application code — benchmark drivers, examples — runs *inside* the host
// process: every messaging-layer call it makes advances virtual time by
// the host cost of that call, exactly as the paper's user-level library
// consumed SPARC cycles.
package host

import (
	"fmt"

	"fm/internal/cost"
	"fm/internal/sbus"
	"fm/internal/sim"
)

// CPU is one workstation's processor. At most one application process
// runs per CPU (the paper's measurements are single-process).
type CPU struct {
	ID  int
	K   *sim.Kernel
	P   *cost.Params
	Bus *sbus.Bus

	proc *sim.Proc
}

// New creates a CPU for node id on the given bus.
func New(k *sim.Kernel, p *cost.Params, bus *sbus.Bus, id int) *CPU {
	return NewAt(new(CPU), k, p, bus, id)
}

// NewAt initializes a CPU in caller-provided storage and returns it —
// the in-place form New wraps, used by the cluster layer's per-node
// stack slice.
func NewAt(c *CPU, k *sim.Kernel, p *cost.Params, bus *sbus.Bus, id int) *CPU {
	*c = CPU{ID: id, K: k, P: p, Bus: bus}
	return c
}

// Start spawns the application process. It panics if one is already
// running.
func (c *CPU) Start(fn func()) {
	if c.proc != nil {
		panic(fmt.Sprintf("host %d: application already running", c.ID))
	}
	c.K.Spawn(fmt.Sprintf("host%d", c.ID), func(p *sim.Proc) {
		c.proc = p
		defer func() { c.proc = nil }()
		fn()
	})
}

// Proc returns the running application process. Messaging layers use it
// to block and to charge time. It panics outside an application.
func (c *CPU) Proc() *sim.Proc {
	if c.proc == nil {
		panic(fmt.Sprintf("host %d: no application process", c.ID))
	}
	return c.proc
}

// Now returns the current virtual time.
func (c *CPU) Now() sim.Time { return c.K.Now() }

// Advance charges d of pure host computation. Like every blocking CPU
// method, it costs no heap allocation in the steady state: sleeps and
// signal waits schedule argument-style kernel events, and a wait appends
// the process itself to the signal's reused waiter list (see DESIGN.md
// "Performance"), so per-message host charges never churn the garbage
// collector.
func (c *CPU) Advance(d sim.Duration) { c.Proc().Sleep(d) }

// Memcpy charges a host memory-to-memory copy of n bytes (user buffer to
// pinned DMA region; ~34 MB/s effective).
func (c *CPU) Memcpy(n int) {
	if n > 0 {
		c.Proc().Sleep(c.P.MemcpyTime(n))
	}
}

// MemRead charges the host reading n bytes of received data out of the
// DMA region (cached reads).
func (c *CPU) MemRead(n int) {
	if n > 0 {
		c.Proc().Sleep(sim.Duration(n) * c.P.HostMemReadByte)
	}
}

// PIOWrite charges a programmed-I/O copy of n bytes across the SBus into
// LANai memory, holding the bus.
func (c *CPU) PIOWrite(n int) { c.Bus.PIOWrite(c.Proc(), n) }

// StatusRead charges an uncached read of a LANai register.
func (c *CPU) StatusRead() { c.Bus.StatusRead(c.Proc()) }

// ControlWrite charges an uncached single-word store to LANai memory.
func (c *CPU) ControlWrite() { c.Bus.ControlWrite(c.Proc()) }

// Wait blocks the application on a signal.
func (c *CPU) Wait(s *sim.Signal) { c.Proc().Wait(s) }
