package sim

import "fmt"

// stopSentinel is panicked inside a process goroutine when the kernel is
// tearing down, so that blocked processes unwind their stacks and exit.
type stopSentinel struct{}

// procFailure wraps a panic raised on a process goroutine so the kernel
// can surface it from Run instead of deadlocking. driving distinguishes
// a panic in the process's own code from one raised by an event
// callback the process happened to be executing as the event-loop
// driver (see block) — the latter is not the process's fault.
type procFailure struct {
	proc    string
	val     any
	driving bool
}

func (f procFailure) Error() string {
	if f.driving {
		return fmt.Sprintf("sim: event callback panicked (while process %q drove the event loop): %v", f.proc, f.val)
	}
	return fmt.Sprintf("sim: process %q panicked: %v", f.proc, f.val)
}

// Proc is a simulated process: a goroutine that advances virtual time by
// blocking on kernel primitives. All Proc methods must be called from
// within the process's own function.
type Proc struct {
	k      *Kernel
	id     int
	name   string
	resume chan struct{}

	// driving is true while this process's goroutine is inside the
	// kernel's drive loop (executing other components' events); it
	// attributes an escaping event-callback panic to the callback
	// rather than the process.
	driving bool

	// dead marks a process whose goroutine has finished (normally or by
	// panic). Teardown must never rendezvous with a dead process: its
	// goroutine no longer receives, so the handoff would hang. A live
	// run never wakes a dead process (wake events are consumed by the
	// block that scheduled them), but a process that fails while driving
	// can leave stale wake state behind for teardown to encounter.
	dead bool
}

// Name returns the name the process was spawned with.
func (p *Proc) Name() string { return p.name }

// Kernel returns the kernel this process runs on.
func (p *Proc) Kernel() *Kernel { return p.k }

// Now returns the current virtual time.
func (p *Proc) Now() Time { return p.k.now }

// Spawn creates a process running fn, starting at the current virtual
// time (after already-queued events at this instant).
func (k *Kernel) Spawn(name string, fn func(*Proc)) *Proc {
	k.nextProc++
	p := &Proc{k: k, id: k.nextProc, name: name, resume: make(chan struct{})}
	k.procs++
	go func() {
		<-p.resume
		sentinel := false
		func() {
			defer func() {
				if r := recover(); r != nil {
					if _, isStop := r.(stopSentinel); isStop {
						sentinel = true
					} else {
						k.fail(procFailure{proc: name, val: r, driving: p.driving})
					}
				}
			}()
			fn(p)
		}()
		k.procs--
		p.dead = true
		// A panic that unwound through a blocking primitive (possibly
		// while this goroutine was driving another component's event)
		// can leave the process still registered as parked; teardown
		// must not try to resume it.
		delete(k.parked, p)
		if sentinel || k.stopped {
			// Teardown: hand control back to the teardown rendezvous.
			k.yield <- struct{}{}
			return
		}
		// The process finished while holding the baton: keep driving the
		// run from this goroutine, then exit once the baton is handed on
		// (to the next process, or to the Run caller when the run is
		// complete — a failure recorded above completes it immediately).
		if k.drive(nil) == driveDone {
			k.yield <- struct{}{}
		}
	}()
	k.scheduleWake(k.now, p)
	return p
}

// block gives up control and waits to be resumed. The blocking process
// drives the event loop itself until the baton moves on: to another
// process (park until our own wake), to nobody because our own wake came
// up next (driveSelf: just keep running), or back to the Run caller when
// the run completes. If the kernel has stopped, control goes straight to
// the teardown rendezvous and the resume unwinds the goroutine.
func (p *Proc) block() {
	k := p.k
	if k.stopped {
		k.yield <- struct{}{}
	} else {
		p.driving = true
		res := k.drive(p)
		p.driving = false
		switch res {
		case driveSelf:
			return
		case driveHanded:
			// Our wake event is still pending; park below.
		case driveDone:
			k.yield <- struct{}{}
		}
	}
	<-p.resume
	if k.stopped {
		panic(stopSentinel{})
	}
}

// Sleep advances the process's local time by d, yielding to other
// activities in between. Sleep(0) yields and resumes after other events
// already scheduled at this instant.
func (p *Proc) Sleep(d Duration) {
	if d < 0 {
		panic("sim: negative sleep")
	}
	// Hand-inlined scheduleWake: Sleep is the hottest schedule site in
	// process-heavy simulations.
	k := p.k
	t := k.now.Add(d)
	if t < k.now {
		panic("sim: sleep overflows the clock")
	}
	k.seq++
	if e := (event{at: t, seq: k.seq, arg: p}); !k.q.pushFast(e) {
		k.q.pushSlow(e)
	}
	p.block()
}

// SleepUntil blocks the process until absolute time t. If t is not after
// the current time, it still yields once.
func (p *Proc) SleepUntil(t Time) {
	if t < p.k.now {
		t = p.k.now
	}
	p.k.scheduleWake(t, p)
	p.block()
}

// park records the process as signal-blocked and yields. The waker is
// responsible for removing it from the parked set before resuming.
func (p *Proc) park() {
	p.k.parked[p] = struct{}{}
	p.block()
}
