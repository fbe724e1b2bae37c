package sim

import (
	"fmt"
	"sort"
)

// Kernel is the event loop at the heart of a simulation. It owns the
// virtual clock and the event queue and coordinates process scheduling.
// A Kernel (and everything scheduled on it) must be driven from a single
// goroutine; process goroutines are synchronized internally so that only
// one of them is ever runnable at a time.
//
// Scheduling is symmetric: there is no dedicated scheduler goroutine
// that every process handoff must bounce through. Whichever goroutine
// holds control — the Run caller initially, afterwards whichever process
// last blocked — drives the event loop itself (see drive), and hands the
// baton directly to the next process to wake. A process-to-process
// switch therefore costs one channel rendezvous instead of two, and a
// process whose own wake event is next continues without any rendezvous
// at all. Event order is untouched: the queue pops in the same (at, seq)
// order regardless of which goroutine is driving.
type Kernel struct {
	now     Time
	q       ladder
	seq     uint64
	horizon Time
	stopped bool
	failure error

	// yield is the handoff channel on which the goroutine that completes
	// (or tears down) a run returns control to the Run caller. It is
	// unbuffered: every transfer is a strict rendezvous.
	yield chan struct{}

	// parked holds processes blocked on a Signal (as opposed to a timed
	// sleep, which keeps a pending event alive). Stop uses it to unwind
	// their goroutines.
	parked map[*Proc]struct{}

	procs     int // live process count
	nextProc  int
	eventsRun uint64
}

// NewKernel returns a kernel with the clock at zero and no pending events.
func NewKernel() *Kernel {
	return &Kernel{
		yield:  make(chan struct{}),
		parked: make(map[*Proc]struct{}),
	}
}

// Now returns the current virtual time.
func (k *Kernel) Now() Time { return k.now }

// EventsRun reports how many events the kernel has executed, which is a
// useful determinism fingerprint in tests.
func (k *Kernel) EventsRun() uint64 { return k.eventsRun }

// At schedules fn to run at absolute time t. Scheduling in the past is a
// programming error and panics.
func (k *Kernel) At(t Time, fn func()) {
	k.AtArg(t, callClosure, fn)
}

// AtArg schedules fn(arg) at absolute time t. This is the
// allocation-free form of At: hot schedule sites pass a package-level
// function and a pointer argument instead of building a closure per
// event. arg must not be retained by the caller in a way that outlives
// the event unless that is intended.
func (k *Kernel) AtArg(t Time, fn func(any), arg any) {
	if t < k.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", t, k.now))
	}
	k.seq++
	if e := (event{at: t, seq: k.seq, fn: fn, arg: arg}); !k.q.pushFast(e) {
		k.q.pushSlow(e)
	}
}

// After schedules fn to run d after the current time.
func (k *Kernel) After(d Duration, fn func()) {
	if d < 0 {
		panic("sim: negative delay")
	}
	k.At(k.now.Add(d), fn)
}

// AfterArg schedules fn(arg) to run d after the current time (the
// allocation-free form of After).
func (k *Kernel) AfterArg(d Duration, fn func(any), arg any) {
	if d < 0 {
		panic("sim: negative delay")
	}
	k.AtArg(k.now.Add(d), fn, arg)
}

// drive outcomes.
const (
	// driveHanded: the baton went to another process; the calling
	// goroutine must park (or exit, if its process has terminated).
	driveHanded = iota
	// driveSelf: the next event resumed the driving process itself; it
	// simply keeps running — no rendezvous happened.
	driveSelf
	// driveDone: the run is complete (queue empty, horizon reached, or a
	// failure recorded); control belongs back with the Run caller.
	driveDone
)

// drive executes events until the run completes or a process other than
// self must be resumed, in which case it sends the baton and returns
// driveHanded. self is the process whose goroutine is driving (nil for
// the Run caller or a terminated process); a wake addressed to self
// returns driveSelf without any channel traffic.
//
// A process wake is always a wake event (fn == nil, arg = *Proc, as
// Sleep, Pulse and Spawn schedule it), handled here without any
// dispatch; event callbacks never resume a process themselves.
//
// Events sharing a timestamp drain in an inner batch loop: the clock is
// written once and the horizon is not re-checked, because an event at
// time t can only be followed at t by events that were already in order
// behind it (including any it schedules itself, which take later seq
// numbers and sort behind pending same-instant events exactly as they
// did under the binary heap).
func (k *Kernel) drive(self *Proc) int {
	q := &k.q
	for {
		if k.failure != nil || q.count == 0 {
			return driveDone
		}
		if q.PeekAt() > k.horizon {
			return driveDone
		}
		// Hand-inlined pops: PeekAt has refilled the near tier for the
		// first, NextIsAt guarantees a pending event for the rest.
		e := q.near[q.head]
		q.head++
		q.count--
		if q.head >= nearKeep && q.head*2 >= len(q.near) {
			q.maintainNear()
		}
		k.now = e.at
		for {
			k.eventsRun++
			if e.fn == nil {
				p := e.arg.(*Proc)
				if p == self {
					return driveSelf
				}
				p.resume <- struct{}{}
				return driveHanded
			}
			e.call()
			if k.failure != nil || !q.NextIsAt(k.now) {
				break
			}
			e = q.near[q.head]
			q.head++
			q.count--
			if q.head >= nearKeep && q.head*2 >= len(q.near) {
				q.maintainNear()
			}
		}
	}
}

// scheduleWake schedules the wake event for p at absolute time t:
// fn == nil marks it for direct handoff in the drive loop.
func (k *Kernel) scheduleWake(t Time, p *Proc) {
	if t < k.now {
		panic(fmt.Sprintf("sim: scheduling wake at %v before now %v", t, k.now))
	}
	k.seq++
	if e := (event{at: t, seq: k.seq, arg: p}); !k.q.pushFast(e) {
		k.q.pushSlow(e)
	}
}

// Run executes events until the queue is empty or the horizon is reached,
// then unwinds any processes still parked on signals. horizon may be
// MaxTime for an unbounded run. It returns the first process failure, if
// any process panicked.
func (k *Kernel) Run(horizon Time) error {
	k.Step(horizon)
	k.stopParked()
	return k.failure
}

// RunAll is Run with an unbounded horizon.
func (k *Kernel) RunAll() error { return k.Run(MaxTime) }

// Step executes events up to and including horizon, leaving every
// process and pending event intact so the run can be continued with a
// later horizon. It is the windowed form of Run that the shard runtime
// drives barrier-to-barrier; a completed sequence of Steps must end
// with Finish to unwind parked processes. It returns the first process
// failure, if any.
func (k *Kernel) Step(horizon Time) error {
	k.horizon = horizon
	if k.drive(nil) == driveHanded {
		// The baton is out with the processes; park until whichever
		// goroutine completes the window hands it back.
		<-k.yield
	}
	return k.failure
}

// Finish ends a Step sequence: it unwinds any processes still parked on
// signals or timed sleeps, exactly as Run does after its horizon, and
// returns the first recorded failure.
func (k *Kernel) Finish() error {
	k.stopParked()
	return k.failure
}

// NextEventAt returns the time of the earliest pending event, with ok
// false when the queue is empty. The shard runtime uses it to pick each
// window's base time.
func (k *Kernel) NextEventAt() (Time, bool) {
	if k.q.Len() == 0 {
		return 0, false
	}
	return k.q.PeekAt(), true
}

// stopParked wakes every process blocked on a signal with the stop
// sentinel so its goroutine can exit. Timed sleepers are abandoned (their
// wake events were drained or are beyond the horizon); their goroutines
// are released the same way if their events remain.
func (k *Kernel) stopParked() {
	k.stopped = true
	for len(k.parked) > 0 {
		// Deterministic order: lowest process id first.
		ps := make([]*Proc, 0, len(k.parked))
		for p := range k.parked {
			ps = append(ps, p)
		}
		sort.Slice(ps, func(i, j int) bool { return ps[i].id < ps[j].id })
		for _, p := range ps {
			if _, still := k.parked[p]; still {
				delete(k.parked, p)
				k.rendezvous(p)
			}
		}
	}
	// Any remaining timed sleepers still hold pending wake events; run
	// them so the goroutines observe stopped and unwind.
	for k.q.Len() > 0 {
		e := k.q.Pop()
		// Do not advance the clock during teardown. A failed run can
		// leave stale wakes for processes that already unwound (e.g. a
		// Pulse drained here naming a dead waiter); skip those — a dead
		// process's goroutine is gone and cannot take a rendezvous.
		if e.fn == nil {
			if p := e.arg.(*Proc); !p.dead {
				k.rendezvous(p)
			}
			continue
		}
		e.call()
	}
}

// rendezvous transfers control to p and waits for it to give control
// back on the yield channel. It is the teardown-path handoff: during a
// run, transfers go through drive instead, which does not take control
// back.
func (k *Kernel) rendezvous(p *Proc) {
	p.resume <- struct{}{}
	<-k.yield
}

// fail records the first process failure; the run loop stops on the next
// iteration.
func (k *Kernel) fail(err error) {
	if k.failure == nil {
		k.failure = err
	}
}
