package sim

// Signal is a broadcast condition variable for processes. A process calls
// Wait to block; any code — event callbacks, devices, or other
// processes — calls Pulse to wake every process currently waiting.
// Wakes are scheduled as events at the current instant, preserving
// deterministic ordering. A Signal has no memory: a Pulse with no waiters
// is lost, so callers must re-check their condition around Wait (the
// standard condition-variable discipline).
type Signal struct {
	k       *Kernel
	waiters []*Proc
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
	ps := s.waiters
	s.waiters = ps[:0]
	for _, p := range ps {
		p.parked = false
		s.k.scheduleWake(s.k.now, p)
	}
	clear(ps) // release process references
}

// pulseArg is the event callback for a deferred pulse.
func pulseArg(a any) { a.(*Signal).Pulse() }

// PulseAfter schedules a Pulse d from now, without allocating a closure.
// Layers use it to arm wakeups (e.g. retransmission deadlines).
func (s *Signal) PulseAfter(d Duration) { s.k.AfterArg(d, pulseArg, s) }

// Wait blocks the calling process until the next Pulse. The process
// leaves the waiter list exactly when Pulse wakes it, so a process is
// listed on at most one signal at a time and waiting allocates nothing
// once the list has grown.
func (p *Proc) Wait(s *Signal) {
	s.waiters = append(s.waiters, p)
	p.park()
}
