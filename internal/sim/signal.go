package sim

// Signal is a broadcast condition variable for processes. A process calls
// Wait (or WaitTimeout) to block; any code — event callbacks, devices, or
// other processes — calls Pulse to wake every process currently waiting.
// Wakes are scheduled as events at the current instant, preserving
// deterministic ordering. A Signal has no memory: a Pulse with no waiters
// is lost, so callers must re-check their condition around Wait (the
// standard condition-variable discipline).
type Signal struct {
	k       *Kernel
	waiters []*waitReg
}

// waitReg tracks one blocked waiter. fired prevents a double resume when
// a timeout and a pulse land at the same instant.
type waitReg struct {
	p        *Proc
	fired    bool
	timedOut bool
}

// NewSignal creates a signal attached to k.
func NewSignal(k *Kernel) *Signal {
	return &Signal{k: k}
}

// Pulse wakes every process currently waiting on s. Waiters resume at the
// current virtual time, in the order they began waiting.
func (s *Signal) Pulse() {
	if len(s.waiters) == 0 {
		return
	}
	// Detach the list but keep its backing array: waiters resume via
	// scheduled events, never during this loop, so nothing can append
	// while we iterate, and truncating (instead of dropping to nil)
	// lets future Waits register without reallocating.
	regs := s.waiters
	s.waiters = regs[:0]
	for _, r := range regs {
		if r.fired {
			continue
		}
		r.fired = true
		delete(s.k.parked, r.p)
		s.k.scheduleWake(s.k.now, r.p)
	}
	for i := range regs {
		regs[i] = nil // release registration references
	}
}

// pulseArg is the event callback for a deferred pulse.
func pulseArg(a any) { a.(*Signal).Pulse() }

// PulseAfter schedules a Pulse d from now, without allocating a closure.
// Layers use it to arm wakeups (e.g. retransmission deadlines).
func (s *Signal) PulseAfter(d Duration) { s.k.AfterArg(d, pulseArg, s) }

// Wait blocks the calling process until the next Pulse. It reuses the
// process's embedded registration, so waiting allocates nothing: an
// untimed registration leaves the waiter list precisely when the process
// is woken (Pulse detaches the whole list before scheduling resumes), so
// it can never alias a later wait.
func (p *Proc) Wait(s *Signal) {
	reg := &p.wreg
	reg.p = p
	reg.fired = false
	reg.timedOut = false
	s.waiters = append(s.waiters, reg)
	p.park()
}

// WaitTimeout blocks until the next Pulse or until d elapses, whichever
// comes first. It reports true if the signal fired and false on timeout.
func (p *Proc) WaitTimeout(s *Signal, d Duration) bool {
	reg := &waitReg{p: p}
	s.waiters = append(s.waiters, reg)
	k := p.k
	k.After(d, func() {
		if reg.fired {
			return // pulsed first (or simultaneously, pulse wins)
		}
		reg.fired = true
		reg.timedOut = true
		delete(k.parked, p)
		k.requestWake(p)
	})
	p.park()
	if reg.timedOut {
		// Lazily drop the stale registration so the waiter list does not
		// accumulate garbage under repeated timeouts.
		for i, r := range s.waiters {
			if r == reg {
				s.waiters = append(s.waiters[:i], s.waiters[i+1:]...)
				break
			}
		}
		return false
	}
	return true
}

// WaitFor repeatedly waits on s until cond() is true. cond is checked
// before the first wait, so a satisfied condition never blocks.
func (p *Proc) WaitFor(s *Signal, cond func() bool) {
	for !cond() {
		p.Wait(s)
	}
}
