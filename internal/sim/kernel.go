package sim

import (
	"fmt"
	"strconv"
	"strings"
)

// Kernel is the event loop at the heart of a simulation. It owns the
// virtual clock and the event queue and coordinates process scheduling.
// A Kernel (and everything scheduled on it) must be driven from a single
// goroutine; each process runs on a runtime coroutine (iter.Pull) that
// only ever runs while the driving goroutine is switched into it, so
// exactly one of them is running at a time.
//
// Processes drive themselves: a process that blocks runs the event loop
// itself (see drive) until the next process wake comes up. If that wake
// is its own, it simply continues — no switch at all. Otherwise it
// yields to the trampoline loop in Step, which resumes the woken
// process. Event order is untouched: the queue pops in the same
// (at, seq) order regardless of which coroutine is driving.
type Kernel struct {
	now     Time
	q       ladder
	seq     uint64
	horizon Time
	stopped bool
	failure error

	// procs lists every process in spawn order. Teardown walks it to
	// unwind processes parked on a signal (as opposed to a timed
	// sleep, which keeps a pending event alive).
	procs []*Proc

	eventsRun uint64

	// Padding to 256 bytes, a size class of whole 64-byte cache lines,
	// so kernels allocated back to back (a shard group's) never share a
	// line: each shard's goroutine writes now, seq and eventsRun on
	// every event.
	_ [16]byte
}

// NewKernel returns a kernel with the clock at zero and no pending events.
func NewKernel() *Kernel { return &Kernel{} }

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
func (k *Kernel) AtArg(t Time, fn func(any), arg any) { k.schedule(t, fn, arg) }

// schedule queues the event fn(arg) at absolute time t. A nil fn makes
// it a process wake (arg is the *Proc), which drive hands straight to
// the process instead of calling anything.
func (k *Kernel) schedule(t Time, fn func(any), arg any) {
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

// drive executes events until the window completes or a process wake
// comes up, and returns the woken process (nil: the window is complete
// — queue empty, horizon reached, or a failure recorded). The caller is
// either the trampoline in Step or a blocking process; a blocking
// process that gets its own wake back just keeps running.
//
// A process wake is always a wake event (fn == nil, arg = *Proc, as
// Sleep, Pay, Pulse and Spawn schedule it), handled here without any
// dispatch; event callbacks never resume a process themselves. A wake
// that pops while its process still owes chained sleeps (Proc.Pay)
// resumes nothing: drive schedules the next sleep itself and runs on.
//
// Events sharing a timestamp drain in an inner batch loop: the clock is
// written once and the horizon is not re-checked, because an event at
// time t can only be followed at t by events that were already in order
// behind it (including any it schedules itself, which take later seq
// numbers and sort behind pending same-instant events exactly as they
// did under the binary heap).
func (k *Kernel) drive() *Proc {
	q := &k.q
	for {
		if k.failure != nil || q.count == 0 {
			return nil
		}
		if q.PeekAt() > k.horizon {
			return nil
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
			if e.fn != nil {
				e.call()
			} else if p := e.arg.(*Proc); p.link == p.owing {
				return p
			} else {
				// A chained wake: schedule the process's next owed
				// sleep, taking the seq its own Sleep would take here,
				// and drive on without resuming it.
				d := p.owed[p.link]
				p.link++
				k.seq++
				if w := (event{at: k.now.Add(d), seq: k.seq, arg: p}); !q.pushFast(w) {
					q.pushSlow(w)
				}
			}
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

// RunAll executes events until the queue is empty, then unwinds any
// processes still blocked (Step to MaxTime, then Finish). It returns
// the first process failure, if any process panicked, or else the
// deadlock error Finish reports for processes left waiting on a
// signal. An event callback that panics outside every process reaches
// the caller as a panic, but only after the unwinding, so no process
// stays parked.
func (k *Kernel) RunAll() (err error) {
	defer func() { err = k.Finish() }()
	return k.Step(MaxTime)
}

// Step executes events up to and including horizon, leaving every
// process and pending event intact so the run can be continued with a
// later horizon. It is the windowed form of RunAll that the shard
// runtime drives barrier-to-barrier; a completed sequence of Steps must
// end with Finish to unwind parked processes. It returns the first
// process failure, if any.
//
// Step is the trampoline: it resumes each woken process, which runs
// (and drives the event loop while it blocks) until it yields the next
// process to resume. A process whose body has ended yields nil and
// hands its coroutine back; Step then drives on itself.
func (k *Kernel) Step(horizon Time) error {
	k.horizon = horizon
	for p := k.drive(); p != nil; {
		next, ended := p.resume()
		if ended {
			next = k.drive()
		}
		p = next
	}
	return k.failure
}

// Finish ends a Step sequence: it unwinds any processes still parked on
// signals or timed sleeps and returns the first recorded failure. A run
// that failed nothing but stopped with no event pending while processes
// still wait on a signal is deadlocked, since nothing is left to pulse
// it: Finish then returns an error naming each of them and the virtual
// time. A run cut at a horizon with events still pending is not.
func (k *Kernel) Finish() error { return k.finish(true) }

// finish is Finish, with the deadlock check optional: a shard group
// whose run failed on another shard skips it, because the failure, not
// this kernel, is why its processes were left waiting.
func (k *Kernel) finish(checkDeadlock bool) error {
	var deadlock error
	if checkDeadlock {
		deadlock = k.deadlock()
	}
	k.stopParked()
	if k.failure != nil {
		return k.failure
	}
	return deadlock
}

// deadlock returns the error for processes waiting on a signal when no
// failure is recorded and no event is pending, or nil.
func (k *Kernel) deadlock() error {
	if k.failure != nil || k.q.Len() > 0 {
		return nil
	}
	var names []string
	for _, p := range k.procs {
		if p.parked {
			names = append(names, strconv.Quote(p.name))
		}
	}
	if names == nil {
		return nil
	}
	return fmt.Errorf("sim: deadlock at %v: no event is pending, and these processes wait on a signal: %s",
		k.now, strings.Join(names, ", "))
}

// Stopped reports whether the kernel is tearing down (Finish). An
// event-driven device checks it in its step callback and does nothing
// then, as a process blocked at that point unwinds without running on.
func (k *Kernel) Stopped() bool { return k.stopped }

// NextEventAt returns the time of the earliest pending event, with ok
// false when the queue is empty. The shard runtime uses it to pick each
// window's base time.
func (k *Kernel) NextEventAt() (Time, bool) {
	if k.q.Len() == 0 {
		return 0, false
	}
	return k.q.PeekAt(), true
}

// stopParked resumes every process still blocked so its coroutine
// unwinds (see block) and goes back to the idle list. Processes parked
// on a signal go first, in spawn order; then the pending events drain,
// which resumes the timed sleepers (their wakes lie past the horizon)
// without advancing the clock. The passes repeat until nothing is
// parked and nothing is pending, since unwinding code may block again.
func (k *Kernel) stopParked() {
	k.stopped = true
	for {
		unwound := false
		for _, p := range k.procs {
			if p.parked {
				p.parked = false
				p.resume()
				unwound = true
			}
		}
		if unwound {
			continue
		}
		if k.q.Len() == 0 {
			return
		}
		for k.q.Len() > 0 {
			e := k.q.Pop()
			// A failed run can leave stale wakes for processes that
			// already ended (e.g. a Pulse drained here naming a dead
			// waiter); skip those — a dead process's coroutine may
			// already be serving another process.
			if e.fn == nil {
				if p := e.arg.(*Proc); !p.dead {
					p.resume()
				}
				continue
			}
			e.call()
		}
	}
}

// fail records the first process failure; the run loop stops on the next
// iteration.
func (k *Kernel) fail(err error) {
	if k.failure == nil {
		k.failure = err
	}
}
