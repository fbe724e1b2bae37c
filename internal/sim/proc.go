package sim

import (
	"fmt"
	"iter"
	"sync"
)

// stopSentinel is panicked inside a process when the kernel is tearing
// down, so that blocked processes unwind their stacks and end.
type stopSentinel struct{}

// procFailure wraps a panic raised in a process so the kernel can
// surface it from Run instead of deadlocking. driving distinguishes
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

// Proc is a simulated process: a function that advances virtual time
// by blocking on kernel primitives, running on a runtime coroutine. All
// Proc methods must be called from within the process's own function.
type Proc struct {
	k    *Kernel
	name string
	fn   func(*Proc)
	c    *coro

	// driving is true while this process is inside the kernel's drive
	// loop (executing other components' events); it attributes an
	// escaping event-callback panic to the callback rather than the
	// process.
	driving bool

	// parked is true while the process is blocked on a Signal; the
	// waker clears it before scheduling the wake, and teardown unwinds
	// whatever is still parked.
	parked bool

	// dead marks a process whose body has ended (normally, by panic, or
	// unwound at teardown). Its coroutine has gone back to the idle list
	// and may already be serving another process, so nothing may resume
	// a dead process. A live run never wakes one (wake events are
	// consumed by the block that scheduled them), but a process that
	// fails while driving can leave stale wake state behind for teardown
	// to encounter.
	dead bool

	// link and owing describe the chain of sleeps the process owes:
	// owed[:owing] are booked by Charge, and while Pay takes them,
	// link indexes the next one, which the kernel schedules itself when
	// the current wake pops (see Kernel.drive). The wake that finds
	// link == owing resumes the process. They sit beside the flags so a
	// wake touches no cache line the flags do not.
	link, owing uint8
	owed        [chainCap]Duration
}

// chainCap is how many charges a process can owe at once: the longest
// run of private host work between two touches of shared state in the
// FM endpoint. A further Charge pays the chain first, which costs one
// more resume and changes nothing else.
const chainCap = 6

// Now returns the current virtual time.
func (p *Proc) Now() Time { return p.k.now }

// Spawn creates a process running fn, starting at the current virtual
// time (after already-queued events at this instant).
func (k *Kernel) Spawn(name string, fn func(*Proc)) *Proc {
	p := &Proc{k: k, name: name, fn: fn}
	p.c = takeCoro(p)
	k.procs = append(k.procs, p)
	k.schedule(k.now, nil, p)
	return p
}

// coro is a runtime coroutine that runs process bodies one after
// another. Resuming it (next) switches the calling goroutine into the
// current process; the process switches back by yielding the next
// process to resume, or nil when its body has ended.
type coro struct {
	next  func() (*Proc, bool)
	yield func(*Proc) bool
	p     *Proc // the process this coroutine is serving
}

// idle holds coroutines whose process has ended, so a Spawn reuses one
// instead of creating a goroutine. It is shared by every kernel; the
// mutex covers kernels running on different goroutines (parallel
// workers, shard kernels). It is not a sync.Pool: the collector empties
// those, and a dropped coroutine would stay parked forever.
var idle struct {
	sync.Mutex
	list []*coro
}

// takeCoro returns an idle coroutine, or a new one, to serve p.
func takeCoro(p *Proc) *coro {
	var c *coro
	idle.Lock()
	if n := len(idle.list); n > 0 {
		c = idle.list[n-1]
		idle.list[n-1] = nil
		idle.list = idle.list[:n-1]
	}
	idle.Unlock()
	if c == nil {
		c = new(coro)
		c.next, _ = iter.Pull(c.serve)
	}
	c.p = p
	return c
}

// serve is the coroutine's body: it runs whichever process it has been
// handed, then yields nil so the resumer can put it back on the idle
// list (see resume) for a later Spawn to hand it a new one. It never
// returns, so the coroutine never needs stopping.
func (c *coro) serve(yield func(*Proc) bool) {
	c.yield = yield
	for {
		c.p.run()
		yield(nil)
	}
}

// resume switches into p until it yields, and returns the process p
// handed on to (nil: the window is complete). If p's body has ended,
// ended is true and p's coroutine goes back to the idle list. Only the
// resumer hands a coroutine back, after it has yielded: a coroutine on
// the list is suspended and may be resumed by any goroutine.
func (p *Proc) resume() (next *Proc, ended bool) {
	c := p.c
	next, _ = c.next()
	if !p.dead {
		return next, false
	}
	p.c, c.p = nil, nil
	idle.Lock()
	idle.list = append(idle.list, c)
	idle.Unlock()
	return nil, true
}

// run executes the process body. A panic is recorded as a run failure,
// except the stop sentinel that teardown uses to unwind a blocked
// process.
func (p *Proc) run() {
	defer func() {
		if r := recover(); r != nil {
			if _, isStop := r.(stopSentinel); !isStop {
				p.k.fail(procFailure{proc: p.name, val: r, driving: p.driving})
			}
		}
		// A panic that unwound through a blocking primitive (possibly
		// while this process was driving another component's event)
		// can leave the process still marked parked; teardown must not
		// try to resume it.
		p.dead, p.parked, p.fn = true, false, nil
	}()
	p.fn(p)
	p.Pay() // a body that ends owing sleeps still takes them
}

// block gives up control and waits to be resumed. The blocking process
// drives the event loop itself until a process wake comes up: if it is
// its own, it just keeps running; otherwise it yields that process (nil
// when the window is complete) to the trampoline in Step. If the kernel
// has stopped, control goes straight back to teardown, and the resume
// unwinds the process.
func (p *Proc) block() {
	k := p.k
	var next *Proc
	if !k.stopped {
		p.driving = true
		next = k.drive()
		p.driving = false
		if next == p {
			return
		}
	}
	p.c.yield(next)
	if k.stopped {
		panic(stopSentinel{})
	}
}

// Charge books a sleep of d that the process owes but need not take
// yet: the time of work that reads and writes nothing another process
// or device can see. The process takes its owed sleeps, in booking
// order, at its next Pay, Sleep, SleepUntil, Wait or Use, or when its
// body returns, and until then it must touch no shared state and read
// no clock. Every event, instant and seq is then exactly what a Sleep
// per charge gives, but the process resumes once per chain instead of
// once per sleep.
func (p *Proc) Charge(d Duration) {
	if d < 0 {
		panic("sim: negative charge")
	}
	if p.owing == chainCap {
		p.Pay()
	}
	p.owed[p.owing] = d
	p.owing++
}

// Pay takes the sleeps the process owes: it schedules the first wake
// and blocks, and each wake that pops schedules the next sleep from
// inside the kernel (Kernel.drive), at the same point in the event
// order as the process's own Sleep would have. Only the last wake
// resumes the process. With nothing owed, Pay does nothing.
func (p *Proc) Pay() {
	if p.owing == 0 {
		return
	}
	k := p.k
	end := k.now
	for _, d := range p.owed[:p.owing] {
		if end = end.Add(d); end < k.now {
			panic("sim: sleep overflows the clock")
		}
	}
	p.link = 1
	k.seq++
	if e := (event{at: k.now.Add(p.owed[0]), seq: k.seq, arg: p}); !k.q.pushFast(e) {
		k.q.pushSlow(e)
	}
	p.block()
	p.link, p.owing = 0, 0
}

// Sleep advances the process's local time by d, yielding to other
// activities in between. Sleep(0) yields and resumes after other events
// already scheduled at this instant. It is Charge(d) then Pay, and
// costs a plain wake when nothing else is owed.
func (p *Proc) Sleep(d Duration) {
	if d < 0 {
		panic("sim: negative sleep")
	}
	if p.owing > 0 {
		p.Charge(d)
		p.Pay()
		return
	}
	// Hand-inlined schedule: Sleep is the hottest schedule site in
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

// SleepUntil blocks the process until absolute time t, after paying
// what it owes. If t is not after the current time, it still yields
// once.
func (p *Proc) SleepUntil(t Time) {
	p.Pay()
	if t < p.k.now {
		t = p.k.now
	}
	p.k.schedule(t, nil, p)
	p.block()
}

// park marks the process as signal-blocked and yields. The waker clears
// the mark before scheduling the wake.
func (p *Proc) park() {
	p.parked = true
	p.block()
}
