package sim

// Signal is a broadcast condition variable. A process calls Wait to
// block, and an event-driven device calls Notify to have a callback run
// once; any code — event callbacks, devices, or other processes — calls
// Pulse to wake every waiter. Wakes are scheduled as events at the
// current instant, preserving deterministic ordering. A Signal has no
// memory: a Pulse with no waiters is lost, so callers must re-check
// their condition around Wait (the standard condition-variable
// discipline).
type Signal struct {
	k       *Kernel
	waiters []waiter
}

// waiter is one registration on a Signal, in the form of the event
// Pulse schedules for it: a process wake (fn == nil, arg is the *Proc)
// or a one-shot callback fn(arg).
type waiter struct {
	fn  func(any)
	arg any
}

// NewSignal creates a signal attached to k.
func NewSignal(k *Kernel) *Signal {
	return &Signal{k: k}
}

// Pulse wakes every waiter on s: process wakes and Notify callbacks run
// as events at the current virtual time, in the order they registered.
func (s *Signal) Pulse() {
	if len(s.waiters) == 0 {
		return
	}
	// Detach the list but keep its backing array: waiters run via
	// scheduled events, never during this loop, so nothing can append
	// while we iterate, and truncating (instead of dropping to nil)
	// lets future registrations reuse it without reallocating.
	ws := s.waiters
	s.waiters = ws[:0]
	k := s.k
	for _, w := range ws {
		if w.fn == nil {
			w.arg.(*Proc).parked = false
		}
		k.schedule(k.now, w.fn, w.arg)
	}
	clear(ws) // release waiter references
}

// pulseArg is the event callback for a deferred pulse.
func pulseArg(a any) { a.(*Signal).Pulse() }

// PulseAfter schedules a Pulse d from now, without allocating a closure.
// Layers use it to arm wakeups (e.g. retransmission deadlines).
func (s *Signal) PulseAfter(d Duration) { s.k.AfterArg(d, pulseArg, s) }

// Notify registers fn(arg) to run once, as an event at the instant of
// the next Pulse: the callback form of Wait, for event-driven devices.
// Pulse schedules callbacks and process wakes alike, in the order they
// registered. Like Wait, it allocates nothing once the waiter list has
// grown.
func (s *Signal) Notify(fn func(any), arg any) {
	if fn == nil {
		panic("sim: Notify needs a callback")
	}
	s.waiters = append(s.waiters, waiter{fn: fn, arg: arg})
}

// Wait pays what the process owes, then blocks it until the next
// Pulse. The process leaves the waiter list exactly when Pulse wakes
// it, so a process is listed on at most one signal at a time and
// waiting allocates nothing once the list has grown.
func (p *Proc) Wait(s *Signal) {
	p.Pay()
	s.waiters = append(s.waiters, waiter{arg: p})
	p.park()
}
